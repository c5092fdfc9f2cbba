"""Tests for the register update unit: renaming, forwarding, memory
ordering, flushing and in-order retirement."""

import pytest

from repro.errors import SchedulerError
from repro.fabric.fabric import Fabric
from repro.frontend.fetch import FetchedInstruction
from repro.frontend.memory import DataMemory
from repro.isa.assembler import assemble
from repro.isa.futypes import FUType
from repro.sched.entry import EntryState
from repro.sched.ruu import RegisterUpdateUnit


def _ruu(window=7):
    fabric = Fabric(reconfig_latency=1)
    dmem = DataMemory(size=4096)
    return RegisterUpdateUnit(fabric, dmem, window_size=window)


def _dispatch(ruu, src, predicted=None):
    """Assemble and dispatch all instructions; returns the entries."""
    program = assemble(src)
    entries = []
    for pc, instr in enumerate(program.instructions):
        fetched = FetchedInstruction(
            pc=pc,
            instruction=instr,
            predicted_next=(predicted.get(pc, pc + 1) if predicted else pc + 1),
        )
        entries.append(ruu.dispatch(fetched))
    return entries


def _cycle(ruu, n=1):
    reports = []
    for _ in range(n):
        reports.append(ruu.issue_and_execute())
        ruu.fabric.tick()
        ruu.tick()
    return reports


class TestDispatch:
    def test_window_fills(self):
        ruu = _ruu(window=2)
        _dispatch(ruu, "add x1, x2, x3\nadd x4, x5, x6\n")
        assert ruu.full
        with pytest.raises(SchedulerError):
            _dispatch(ruu, "add x7, x8, x9\n")

    def test_renaming_creates_dependency(self):
        ruu = _ruu()
        e = _dispatch(ruu, "add x1, x2, x3\nsub x4, x1, x5\n")
        # the sub's first source must be bound to the add's seq
        assert e[1].sources[0].producer_seq == e[0].seq

    def test_x0_source_never_binds(self):
        ruu = _ruu()
        e = _dispatch(ruu, "add x0, x2, x3\nadd x4, x0, x5\n")
        assert e[1].sources[0] is None  # x0 read is constant

    def test_ready_unscheduled_feeds_config_manager(self):
        ruu = _ruu()
        _dispatch(ruu, "add x1, x2, x3\nmul x4, x5, x6\n")
        ready = ruu.ready_unscheduled()
        assert [i.mnemonic for i in ready] == ["add", "mul"]
        _cycle(ruu)
        assert ruu.ready_unscheduled() == []  # both granted


class TestIssueAndForwarding:
    def test_independent_ops_issue_together(self):
        ruu = _ruu()
        _dispatch(ruu, "add x1, x2, x3\nlw x4, 0(x0)\nfadd f1, f2, f3\n")
        report = ruu.issue_and_execute()
        assert len(report.granted) == 3

    def test_dependent_op_waits_for_producer_latency(self):
        ruu = _ruu()
        e = _dispatch(ruu, "mul x1, x2, x3\nadd x4, x1, x5\n")
        _cycle(ruu)  # mul issues (latency 4)
        assert e[0].state is EntryState.ISSUED
        assert e[1].state is EntryState.WAITING
        _cycle(ruu, 3)  # mul completes after 4 ticks total
        assert e[0].completed
        report = ruu.issue_and_execute()
        assert len(report.granted) == 1
        assert e[1].state is EntryState.ISSUED

    def test_operand_forwarded_from_producer(self):
        ruu = _ruu()
        ruu.regfile.write("int", 2, 20)
        ruu.regfile.write("int", 3, 22)
        e = _dispatch(ruu, "add x1, x2, x3\nadd x4, x1, x1\n")
        _cycle(ruu, 2)
        _cycle(ruu)  # let the dependent complete
        assert e[0].result == 42
        assert e[1].result == 84  # read from the producer entry, not regfile

    def test_same_type_contention_respects_unit_count(self):
        ruu = _ruu()
        _dispatch(ruu, "fmul f1, f2, f3\nfmul f4, f5, f6\n")
        report = ruu.issue_and_execute()
        assert len(report.granted) == 1  # single FP-MDU (the FFU)

    def test_structural_stall_resolved_by_extra_rfu_unit(self):
        ruu = _ruu()
        ruu.fabric.rfus.begin_reconfigure(0, FUType.FP_MDU)
        for _ in range(10):
            ruu.fabric.tick()
        _dispatch(ruu, "fmul f1, f2, f3\nfmul f4, f5, f6\n")
        report = ruu.issue_and_execute()
        assert len(report.granted) == 2


class TestMemoryOrdering:
    def test_store_then_load_forwards(self):
        ruu = _ruu()
        ruu.regfile.write("int", 1, 7)
        e = _dispatch(ruu, "sw x1, 0(x0)\nlw x2, 0(x0)\n")
        _cycle(ruu, 5)
        assert e[1].result == 7
        # memory untouched until the store retires
        assert ruu.dmem.peek_word(0) == 0

    def test_load_waits_for_unknown_store_address(self):
        ruu = _ruu()
        e = _dispatch(ruu, "mul x1, x2, x3\nsw x4, 0(x1)\nlw x5, 8(x0)\n")
        report = ruu.issue_and_execute()
        # load requested but denied: the store's address is unknown
        granted_entries = [e_ for e_ in e if e_.state is EntryState.ISSUED]
        assert all(not g.is_load for g in granted_entries)
        assert report.memory_stalls == 1

    def test_partial_overlap_blocks_until_store_retires(self):
        ruu = _ruu()
        e = _dispatch(ruu, "sw x1, 0(x0)\nlb x2, 1(x0)\n")
        _cycle(ruu, 4)
        assert e[0].completed
        assert e[1].state is EntryState.WAITING  # overlap but not exact
        ruu.retire()  # store commits to memory
        report = ruu.issue_and_execute()
        assert len(report.granted) == 1

    def test_disjoint_load_proceeds(self):
        ruu = _ruu()
        # add a second LSU so the store and the load don't contend
        ruu.fabric.rfus.begin_reconfigure(0, FUType.LSU)
        for _ in range(5):
            ruu.fabric.tick()
        e = _dispatch(ruu, "sw x1, 0(x0)\nlw x2, 64(x0)\n")
        report = ruu.issue_and_execute()
        assert len(report.granted) == 2
        assert report.memory_stalls == 0

    def test_store_writes_memory_at_retire(self):
        ruu = _ruu()
        ruu.regfile.write("int", 1, 0xABCD)
        _dispatch(ruu, "sw x1, 4(x0)\n")
        _cycle(ruu, 3)
        ruu.retire()
        assert ruu.dmem.peek_word(4) == 0xABCD


class TestRetire:
    def test_in_order_retirement(self):
        ruu = _ruu()
        e = _dispatch(ruu, "mul x1, x2, x3\nadd x4, x5, x6\n")
        _cycle(ruu, 2)
        assert e[1].completed and not e[0].completed
        assert ruu.retire() == []  # head (mul) not done: nothing retires
        _cycle(ruu, 3)
        retired = ruu.retire()
        assert [r.seq for r in retired] == [e[0].seq, e[1].seq]

    def test_retire_width_respected(self):
        ruu = _ruu()
        ruu.retire_width = 2
        _dispatch(ruu, "add x1, x0, x0\nadd x2, x0, x0\nadd x3, x0, x0\n")
        _cycle(ruu, 3)  # one IALU: the adds issue one per cycle
        assert len(ruu.retire()) == 2
        assert len(ruu.retire()) == 1

    def test_retire_commits_registers(self):
        ruu = _ruu()
        ruu.regfile.write("int", 2, 5)
        _dispatch(ruu, "addi x1, x2, 10\n")
        _cycle(ruu, 2)
        ruu.retire()
        assert ruu.regfile.x(1) == 15

    def test_halt_sets_flag_and_stops_retirement(self):
        ruu = _ruu()
        _dispatch(ruu, "halt\nadd x1, x2, x3\n")
        _cycle(ruu, 3)
        ruu.retire()
        assert ruu.halted

    def test_rename_cleaned_at_retire(self):
        ruu = _ruu()
        e = _dispatch(ruu, "add x1, x2, x3\n")
        _cycle(ruu, 2)
        ruu.retire()
        e2 = _dispatch(ruu, "add x4, x1, x0\n")
        # producer retired: source reads the architectural file
        assert e2[0].sources[0].producer_seq is None


class TestCompletion:
    """Issued entries complete at their due cycle, by event."""

    def test_countdown_to_completion(self):
        ruu = _ruu()
        (e,) = _dispatch(ruu, "mul x1, x2, x3\n")
        ruu.issue_and_execute()  # mul: latency 4, due at the end of cycle 3
        for _ in range(3):
            ruu.tick()
            assert e.state is EntryState.ISSUED
            assert not ruu.fabric.available(FUType.INT_MDU)
        ruu.tick()
        assert e.completed
        assert ruu.fabric.available(FUType.INT_MDU)  # released at completion
        assert ruu.clock == 4

    def test_single_cycle_completes_after_one_tick(self):
        ruu = _ruu()
        (e,) = _dispatch(ruu, "add x1, x2, x3\n")
        ruu.issue_and_execute()
        ruu.tick()
        assert e.completed

    def test_waiting_entry_does_not_complete(self):
        ruu = _ruu()
        e = _dispatch(ruu, "fdiv f1, f2, f3\nfadd f4, f1, f1\n")
        _cycle(ruu, 5)
        assert e[0].state is EntryState.ISSUED
        assert e[1].state is EntryState.WAITING

    def test_squashed_entry_skipped_at_its_due_cycle(self):
        """A flushed entry's due record must not complete the entry that
        took its row, nor release the unit its successor now holds."""
        ruu = _ruu()
        e = _dispatch(ruu, "add x9, x2, x3\nmul x1, x2, x3\n")
        ruu.issue_and_execute()  # the old mul is due at cycle 3
        ruu.tick()
        ruu.flush_younger(e[0].seq)  # squash the old mul mid-flight
        (new,) = _dispatch(ruu, "mul x4, x5, x6\n")
        ruu.issue_and_execute()  # the new mul is due at cycle 4
        assert new.state is EntryState.ISSUED
        for _ in range(3):  # through the old mul's due cycle
            ruu.tick()
        assert new.state is EntryState.ISSUED
        assert not ruu.fabric.available(FUType.INT_MDU)
        ruu.tick()
        assert new.completed
        assert ruu.fabric.available(FUType.INT_MDU)


class TestFlush:
    def test_flush_younger_removes_entries(self):
        ruu = _ruu()
        e = _dispatch(ruu, "add x1, x2, x3\nadd x4, x5, x6\nadd x7, x8, x9\n")
        squashed = ruu.flush_younger(e[0].seq)
        assert squashed == 2
        assert len(ruu) == 1
        assert ruu.flushed == 2

    def test_flush_releases_busy_units(self):
        ruu = _ruu()
        e = _dispatch(ruu, "fdiv f1, f2, f3\n")
        _cycle(ruu)  # fdiv issues, occupies the FP-MDU for 16 cycles
        assert not ruu.fabric.available(FUType.FP_MDU)
        ruu.flush_younger(-1)
        assert ruu.fabric.available(FUType.FP_MDU)

    def test_flush_rebuilds_rename(self):
        ruu = _ruu()
        e = _dispatch(ruu, "add x1, x2, x3\nadd x1, x4, x5\n")
        ruu.flush_younger(e[0].seq)
        e2 = _dispatch(ruu, "add x6, x1, x0\n")
        assert e2[0].sources[0].producer_seq == e[0].seq

    def test_flush_frees_wakeup_rows(self):
        ruu = _ruu(window=2)
        e = _dispatch(ruu, "add x1, x2, x3\nadd x4, x5, x6\n")
        ruu.flush_younger(e[0].seq)
        assert not ruu.full
        _dispatch(ruu, "add x7, x8, x9\n")  # row reusable


class TestControl:
    def test_branch_resolution_reported(self):
        ruu = _ruu()
        _dispatch(ruu, "beq x0, x0, 5\n", predicted={0: 5})
        report = ruu.issue_and_execute()
        assert len(report.resolutions) == 1
        res = report.resolutions[0]
        assert res.taken and res.target == 5 and not res.mispredicted

    def test_mispredict_detected(self):
        ruu = _ruu()
        _dispatch(ruu, "beq x0, x0, 5\n", predicted={0: 1})
        report = ruu.issue_and_execute()
        assert report.resolutions[0].mispredicted

    def test_jal_writes_link(self):
        ruu = _ruu()
        _dispatch(ruu, "jal x1, 3\n", predicted={0: 3})
        _cycle(ruu, 2)
        ruu.retire()
        assert ruu.regfile.x(1) == 1  # return address = pc + 1
