"""Tests for the [9] pipelined select-free scheduling extension."""

import pytest

from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.core.reference import run_reference
from repro.fabric.fabric import Fabric
from repro.frontend.fetch import FetchedInstruction
from repro.frontend.memory import DataMemory
from repro.isa.assembler import assemble
from repro.sched.entry import EntryState
from repro.sched.ruu import RegisterUpdateUnit
from repro.workloads.kernels import all_kernels, saxpy

_PIPE = ProcessorParams(reconfig_latency=4, pipelined_scheduling=True)


def _ruu():
    fabric = Fabric(reconfig_latency=1)
    return RegisterUpdateUnit(
        fabric, DataMemory(size=1024), pipelined_scheduling=True
    )


def _dispatch(ruu, src):
    entries = []
    for pc, instr in enumerate(assemble(src).instructions):
        entries.append(
            ruu.dispatch(FetchedInstruction(pc=pc, instruction=instr, predicted_next=pc + 1))
        )
    return entries


class TestCollisionReplay:
    def test_losers_replay_one_cycle_later(self):
        ruu = _ruu()
        e = _dispatch(ruu, "fmul f1, f2, f3\nfmul f4, f5, f6\n")
        issued, _ = ruu.issue_and_execute()
        # one FP-MDU: the older wins, the younger is a select-free loser
        assert issued == [e[0].seq]
        assert ruu.scheduling_replays == 1
        assert e[1].state is EntryState.WAITING
        # the loser's scheduled bit is set (it believed it was selected)
        row1 = ruu._row_of_seq(e[1].seq)
        assert ruu.wakeup.rows[row1].scheduled
        # next cycle the reschedule input clears it; once the unit frees
        # (fmul latency 5), the loser issues
        for _ in range(5):
            ruu.fabric.tick()
            ruu.tick()
        issued, _ = ruu.issue_and_execute()
        assert issued == [e[1].seq]
        assert e[1].state is EntryState.ISSUED

    def test_no_replays_without_contention(self):
        ruu = _ruu()
        _dispatch(ruu, "add x1, x2, x3\nlw x4, 0(x0)\n")
        ruu.issue_and_execute()
        assert ruu.scheduling_replays == 0

    def test_stale_availability_window(self):
        """The wake-up bus lags one cycle: the first call uses live bits,
        later calls see the previous cycle's availability."""
        ruu = _ruu()
        e = _dispatch(ruu, "fdiv f1, f2, f3\nfadd f4, f5, f6\n")
        ruu.issue_and_execute()  # both types available, both issue
        assert e[0].state is EntryState.ISSUED


class TestArchitecturalEquivalence:
    @pytest.mark.parametrize(
        "kernel", all_kernels(), ids=lambda k: k.name
    )
    def test_pipelined_mode_matches_golden_model(self, kernel):
        proc = steering_processor(kernel.program, _PIPE)
        result = proc.run(max_cycles=300_000)
        assert result.halted
        kernel.verify(proc.dmem)
        assert result.retired == run_reference(kernel.program).executed

    def test_replays_counted_in_stats(self):
        kernel = saxpy(n=24)
        result = steering_processor(kernel.program, _PIPE).run()
        assert result.scheduling_replays > 0

    def test_atomic_mode_never_replays(self):
        kernel = saxpy(n=24)
        result = steering_processor(
            kernel.program, ProcessorParams(reconfig_latency=4)
        ).run()
        assert result.scheduling_replays == 0
