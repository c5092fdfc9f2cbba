"""Tests for the configuration manager: :class:`PaperSteering` bound to a
bare fabric, clocked with a stand-in RUU that carries only the window's
packed demand (``waiting_demand``)."""

from types import SimpleNamespace

import pytest

from repro.core.params import ProcessorParams
from repro.core.policies import PaperSteering
from repro.core.tracing import SteeringTrace
from repro.fabric.fabric import Fabric
from repro.isa.assembler import assemble
from repro.isa.futypes import COUNT_ONE, FUType


def _queue(src):
    return assemble(src).instructions


_INT_QUEUE = _queue("\n".join(["add x1, x2, x3"] * 4 + ["mul x4, x5, x6"] * 3))
_FP_QUEUE = _queue("\n".join(["fmul f1, f2, f3"] * 4 + ["fadd f4, f5, f6"] * 3))
_MEM_QUEUE = _queue("\n".join(["lw x1, 0(x2)"] * 5 + ["add x3, x4, x5"] * 2))


def _manager(fabric, params=ProcessorParams()):
    policy = PaperSteering()
    policy.bind(fabric, params)
    return policy


def _ruu(queue):
    """A stand-in RUU whose waiting window is ``queue``."""
    return SimpleNamespace(waiting_demand=sum(COUNT_ONE[i.fu_type] for i in queue))


def _cycle(manager, queue):
    """One clock of the manager over ``queue``; returns its selection."""
    manager.cycle(_ruu(queue))
    return manager.last_result


def _run(manager, queue, cycles):
    for _ in range(cycles):
        _cycle(manager, queue)
        manager.fabric.tick()


def _cycles(manager):
    return sum(manager.selections.values())


@pytest.fixture
def fabric():
    return Fabric(reconfig_latency=2)


class TestSteering:
    def test_steers_to_integer_config(self, fabric):
        """Steering loads integer units until the current hybrid matches as
        well as the full integer configuration (the tie then favours
        current, so loading may stop one unit short — §3.1)."""
        mgr = _manager(fabric)
        _run(mgr, _INT_QUEUE, 60)
        counts = fabric.rfus.counts()
        assert counts.get(FUType.INT_ALU, 0) >= 3
        assert counts.get(FUType.INT_MDU, 0) == 2
        assert counts.get(FUType.FP_ALU, 0) == 0

    def test_steers_to_floating_config(self, fabric):
        mgr = _manager(fabric)
        _run(mgr, _FP_QUEUE, 80)
        counts = fabric.rfus.counts()
        assert counts.get(FUType.FP_ALU, 0) == 1
        assert counts.get(FUType.FP_MDU, 0) == 1

    def test_settles_then_keeps_current(self, fabric):
        """After steering completes the selection switches to 'current'."""
        mgr = _manager(fabric)
        _run(mgr, _INT_QUEUE, 60)
        result = _cycle(mgr, _INT_QUEUE)
        assert result.keeps_current

    def test_phase_change_resteers(self, fabric):
        """A workload phase change redirects steering toward memory units
        (settling once the hybrid error ties the memory config's)."""
        mgr = _manager(fabric)
        _run(mgr, _INT_QUEUE, 60)
        assert fabric.rfus.counts().get(FUType.LSU, 0) == 0
        _run(mgr, _MEM_QUEUE, 80)
        assert fabric.rfus.counts().get(FUType.LSU, 0) >= 1
        assert _cycle(mgr, _MEM_QUEUE).keeps_current

    def test_empty_queue_is_stable(self, fabric):
        mgr = _manager(fabric)
        _run(mgr, [], 20)
        assert fabric.reconfigurations == 0
        assert mgr.selections.get(0, 0) / _cycles(mgr) == 1.0


class TestStats:
    def test_stats_accumulate(self, fabric):
        mgr = _manager(fabric)
        _run(mgr, _INT_QUEUE, 30)
        assert _cycles(mgr) == 30
        assert len(mgr.loader.history) == fabric.reconfigurations

    def test_mean_selected_error_defined(self, fabric):
        mgr = _manager(fabric)
        assert mgr.selected_error == 0 and _cycles(mgr) == 0
        _run(mgr, _INT_QUEUE, 10)
        assert mgr.selected_error / _cycles(mgr) >= 0.0

    def test_trace_recording(self, fabric):
        """The steering-trace observer keeps one run per change of the
        manager's selection; the runs cover every observed cycle."""
        mgr = _manager(fabric)
        trace = SteeringTrace()
        proc = SimpleNamespace(policy=mgr, cycle_count=0)
        selections = []
        for queue in [_FP_QUEUE] * 15 + [_INT_QUEUE] * 15:
            _cycle(mgr, queue)
            fabric.tick()
            trace.on_cycle(proc, (), [], (), [], 0)
            selections.append(mgr.last_result.index)
            proc.cycle_count += 1
        expanded = [s for s, _, length in trace.runs for _ in range(length)]
        assert expanded == selections
        assert [first for _, first, _ in trace.runs] == [
            i for i in range(30) if i == 0 or selections[i] != selections[i - 1]
        ]
        assert 1 < len(trace.runs) < 30
        assert len(mgr.loader.history) == fabric.reconfigurations > 0


class TestExactMetricOption:
    def test_exact_metric_manager_still_steers(self, fabric):
        mgr = _manager(fabric, ProcessorParams(use_exact_metric=True))
        _run(mgr, _FP_QUEUE, 80)
        counts = fabric.rfus.counts()
        assert counts.get(FUType.FP_ALU, 0) == 1
