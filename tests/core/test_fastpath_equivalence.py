"""Observed vs unobserved runs: bit-identical simulation results.

A cycle observer (``Processor(observer=...)``) only reads: attaching one
must not change *any* architected or statistical outcome.  One test runs
every observer the repo ships — the event recorder (on steering and on
the ffu-only baseline, which has no configuration manager), the steering
trace, and telemetry with stage profiling, a span tracer and a decision
ledger — over every seed kernel, and compares the complete
:class:`SimulationResult` record (``to_dict()``, which carries the final
architected-state digest) with the ``observer=None`` run.
"""

import pytest

from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.core.policies import NoSteering
from repro.core.processor import Processor
from repro.core.tracing import EventRecorder, SteeringTrace
from repro.telemetry import STAGES, DecisionLedger, ProcessorTelemetry, SpanTracer
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


def _check_events(recorder, result):
    assert len(recorder.events) == result.cycles
    assert [e.cycle for e in recorder.events] == list(range(result.cycles))
    assert sum(len(e.retired) for e in recorder.events) == result.retired


def _check_trace(trace, result):
    assert len(trace.entries) == result.cycles
    loads = sum(1 for t in trace.entries if t.load is not None)
    assert loads == result.reconfigurations


def _telemetry():
    return ProcessorTelemetry(
        profile_stages=True,
        tracer=SpanTracer(),
        ledger=DecisionLedger(capacity=64, window=32),
    )


def _check_telemetry(tel, result):
    assert tel.registry.get("repro_sim_cycles_total").value == result.cycles
    wall = tel.snapshot()["stage_wall_seconds"]
    assert set(wall) == set(STAGES) and sum(wall.values()) > 0.0
    assert tel.ledger.seen > 0


#: (id, processor factory, observer factory, check of what it observed)
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
    observed = build(program, observer).run(max_cycles=100_000)
    assert plain.halted and observed.halted
    assert observed.to_dict() == plain.to_dict()
    check(observer, observed)


def test_trace_ring_buffer_bounds_memory():
    """A trace limit keeps only the newest entries on long runs."""
    program = checksum(iterations=40).program
    trace = SteeringTrace(limit=64)
    proc = steering_processor(program, _PARAMS, observer=trace)
    proc.run(max_cycles=100_000)
    assert len(trace.entries) == 64
    # newest entries are retained (manager cycles are 1-based)
    assert trace.entries[-1].cycle == proc.policy.manager.stats.cycles
    assert trace.entries[0].cycle == proc.policy.manager.stats.cycles - 63
