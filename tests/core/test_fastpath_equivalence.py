"""Observed vs unobserved runs: bit-identical simulation results.

A cycle observer (``Processor(observer=...)``) only reads: attaching one
must not change *any* architected or statistical outcome.  One test runs
every observer the repo ships — the event recorder (on steering and on
the ffu-only baseline, which has no configuration manager), the steering
trace, and telemetry (series, span tracer and decision ledger) with stage
profiling — over every seed kernel, and compares the complete
:class:`SimulationResult` record (``to_dict()``, which carries the final
architected-state digest) with the ``observer=None`` run.
"""

import pytest

from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.core.policies import NoSteering
from repro.core.processor import Processor
from repro.core.tracing import EventRecorder, SteeringTrace
from repro.telemetry import STAGES, ProcessorTelemetry
from repro.telemetry.probes import SAMPLE_INTERVAL
from repro.workloads.kernels import checksum, memcpy, saxpy

_KERNELS = [
    ("checksum", checksum(iterations=40).program),
    ("memcpy", memcpy(n=24).program),
    ("saxpy", saxpy(n=16).program),
]
_PARAMS = ProcessorParams(reconfig_latency=8)


def _ffu_only(program, observer=None):
    return Processor(program, params=_PARAMS, policy=NoSteering(), observer=observer)


def _steering(program, observer=None):
    return steering_processor(program, _PARAMS, observer=observer)


def _check_events(recorder, result, proc):
    assert len(recorder.events) == result.cycles
    assert [e.cycle for e in recorder.events] == list(range(result.cycles))
    assert sum(len(e.retired) for e in recorder.events) == result.retired


def _check_trace(trace, result, proc):
    assert sum(length for _, _, length in trace.runs) == result.cycles
    assert len(proc.policy.loader.history) == result.reconfigurations


def _telemetry():
    return ProcessorTelemetry(profile_stages=True)


def _check_telemetry(tel, result, proc):
    samples = tel.series.series("windowed_ipc").seen
    assert samples == result.cycles // SAMPLE_INTERVAL
    assert len(tel.tracer) > 0
    wall = tel.snapshot()["stage_wall_seconds"]
    assert set(wall) == set(STAGES) and sum(wall.values()) > 0.0
    assert tel.ledger.seen > 0


#: (id, processor factory, observer factory, check of what it observed:
#: ``check(observer, result, proc)``)
_OBSERVERS = [
    ("events", _steering, EventRecorder, _check_events),
    ("events-ffu-only", _ffu_only, EventRecorder, _check_events),
    ("steering-trace", _steering, SteeringTrace, _check_trace),
    ("telemetry", _steering, _telemetry, _check_telemetry),
]


@pytest.mark.parametrize("name,program", _KERNELS, ids=[n for n, *_ in _KERNELS])
@pytest.mark.parametrize(
    "build,make_observer,check",
    [case[1:] for case in _OBSERVERS],
    ids=[case[0] for case in _OBSERVERS],
)
def test_observed_run_bit_identical(
    build, make_observer, check, name, program
):
    plain = build(program).run(max_cycles=100_000)
    observer = make_observer()
    proc = build(program, observer)
    observed = proc.run(max_cycles=100_000)
    assert plain.halted and observed.halted
    assert observed.to_dict() == plain.to_dict()
    check(observer, observed, proc)

