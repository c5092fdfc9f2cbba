"""One steering processor: a bare ``Processor`` and ``repro trace`` run
exactly what the ``steering`` factory runs.

The policies take the selection window (``window_size``: the whole
wake-up array) and the error metric (``use_exact_metric``) from the
processor's :class:`ProcessorParams` when they bind, so there is no
second default to drift from the factory's.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.core.processor import Processor
from repro.core.tracing import EventRecorder, render_fabric_timeline
from repro.workloads import resolve_program

TARGETS = ("checksum", "phased:1", "mix:balanced:200:1")
WINDOWS = (7, 11, 16)


def _params(window: int, exact: bool = False) -> ProcessorParams:
    """The parameters ``repro trace --window W`` builds, with the metric."""
    return ProcessorParams(window_size=window, use_exact_metric=exact)


@pytest.fixture(scope="module")
def programs():
    return {target: resolve_program(target) for target in TARGETS}


@pytest.mark.parametrize("exact", (False, True), ids=("shift", "exact"))
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("target", TARGETS)
def test_default_policy_is_the_steering_factory(programs, target, window, exact):
    program = programs[target]
    params = _params(window, exact)
    bare = Processor(program, params)
    factory = steering_processor(program, params)
    assert bare.policy.name == factory.policy.name
    assert factory.policy.name == ("steering-exact" if exact else "steering")
    assert bare.run().to_dict() == factory.run().to_dict()


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("target", TARGETS)
def test_trace_command_runs_the_steering_factory(programs, capsys, target, window):
    """The timeline ``repro trace`` prints is the factory run's, both at
    stride 1 and at a stride that spans the whole run."""
    recorder = EventRecorder()
    proc = steering_processor(programs[target], _params(window), observer=recorder)
    proc.run()
    whole_run = proc.cycle_count // 150 + 1
    for stride in (1, whole_run):
        capsys.readouterr()
        assert main(
            ["trace", target, "--window", str(window), "--stride", str(stride)]
        ) == 0
        printed = capsys.readouterr().out
        assert printed == render_fabric_timeline(recorder.events, stride=stride) + "\n"


def test_the_metric_is_read_at_bind():
    """Rebinding a policy object follows the new processor's parameters."""
    program = resolve_program("phased:1")
    exact = steering_processor(program, _params(7, exact=True))
    policy = exact.policy
    Processor(program, dataclasses.replace(exact.params, use_exact_metric=False),
              policy=policy)
    assert policy.name == "steering" and not policy.use_exact_metric
