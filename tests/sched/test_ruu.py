"""Tests for the register update unit: renaming, forwarding, memory
ordering, flushing and in-order retirement."""

import pytest

from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.errors import SchedulerError
from repro.fabric.fabric import Fabric
from repro.frontend.decode import DecodeStage
from repro.frontend.fetch import FetchedInstruction
from repro.frontend.memory import DataMemory
from repro.isa.assembler import assemble
from repro.isa.futypes import FU_TYPES, FUType, unpack_counts
from repro.sched.entry import EntryState
from repro.sched.ruu import RegisterUpdateUnit
from repro.verify.generator import generate_program
from repro.workloads.kernels_extra import bubble_sort


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
    for _ in range(n):
        ruu.issue_and_execute()
        ruu.fabric.tick()
        ruu.tick()


def _decoded(src, width):
    """A decode stage of the given width holding ``src``'s instructions."""
    decode = DecodeStage(width=width)
    decode.push(
        [
            FetchedInstruction(pc=pc, instruction=instr, predicted_next=pc + 1)
            for pc, instr in enumerate(assemble(src).instructions)
        ]
    )
    return decode



def _available(fabric, fu_type):
    """Eq. 1 for one type, read from the availability bus."""
    return bool(fabric.availability_bits() & (1 << fu_type.bit_index))

class TestDispatch:
    def test_dispatch_pops_in_fifo_order(self):
        ruu = _ruu()
        decode = _decoded("add x1, x2, x3\nadd x4, x5, x6\nadd x7, x8, x9\n", 2)
        assert ruu.dispatch_decoded(decode) == 2
        assert [e.pc for e in list(ruu._order)] == [0, 1]
        assert ruu.dispatch_decoded(decode) == 1
        assert [e.pc for e in list(ruu._order)] == [0, 1, 2]
        assert ruu.dispatch_decoded(decode) == 0
        assert [e.seq for e in list(ruu._order)] == [0, 1, 2]

    def test_dispatch_respects_decode_width_and_free_rows(self):
        src = "".join(f"add x{i}, x0, x0\n" for i in range(1, 7))
        ruu = _ruu(window=3)
        decode = _decoded(src, 2)
        assert ruu.dispatch_decoded(decode) == 2  # the decode width
        assert ruu.dispatch_decoded(decode) == 1  # one free row left
        assert ruu.wakeup.full and len(decode) == 3
        assert ruu.dispatch_decoded(decode) == 0  # a full window stalls
        assert decode.decoded == 3 and ruu.dispatched == 3

    def test_window_fills(self):
        ruu = _ruu(window=2)
        _dispatch(ruu, "add x1, x2, x3\nadd x4, x5, x6\n")
        assert ruu.wakeup.full
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
        e = _dispatch(ruu, "add x1, x2, x3\nlw x4, 0(x0)\nfadd f1, f2, f3\n")
        issued, resolutions = ruu.issue_and_execute()
        assert issued == [entry.seq for entry in e]
        assert resolutions == []

    def test_dependent_op_waits_for_producer_latency(self):
        ruu = _ruu()
        e = _dispatch(ruu, "mul x1, x2, x3\nadd x4, x1, x5\n")
        _cycle(ruu)  # mul issues (latency 4)
        assert e[0].state is EntryState.ISSUED
        assert e[1].state is EntryState.WAITING
        _cycle(ruu, 3)  # mul completes after 4 ticks total
        assert e[0].state is EntryState.COMPLETED
        issued, _ = ruu.issue_and_execute()
        assert issued == [e[1].seq]
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
        e = _dispatch(ruu, "fmul f1, f2, f3\nfmul f4, f5, f6\n")
        issued, _ = ruu.issue_and_execute()
        assert issued == [e[0].seq]  # single FP-MDU (the FFU)

    def test_structural_stall_resolved_by_extra_rfu_unit(self):
        ruu = _ruu()
        ruu.fabric.begin_reconfigure(0, FUType.FP_MDU)
        for _ in range(10):
            ruu.fabric.tick()
        e = _dispatch(ruu, "fmul f1, f2, f3\nfmul f4, f5, f6\n")
        issued, _ = ruu.issue_and_execute()
        assert issued == [e[0].seq, e[1].seq]


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
        issued, _ = ruu.issue_and_execute()
        # load requested but denied: the store's address is unknown
        assert issued == [e[0].seq]  # the mul; the store waits for x1
        assert ruu.memory_stalls == 1

    def test_partial_overlap_blocks_until_store_retires(self):
        ruu = _ruu()
        e = _dispatch(ruu, "sw x1, 0(x0)\nlb x2, 1(x0)\n")
        _cycle(ruu, 4)
        assert e[0].state is EntryState.COMPLETED
        assert e[1].state is EntryState.WAITING  # overlap but not exact
        ruu.retire()  # store commits to memory
        issued, _ = ruu.issue_and_execute()
        assert issued == [e[1].seq]

    def test_disjoint_load_proceeds(self):
        ruu = _ruu()
        # add a second LSU so the store and the load don't contend
        ruu.fabric.begin_reconfigure(0, FUType.LSU)
        for _ in range(5):
            ruu.fabric.tick()
        e = _dispatch(ruu, "sw x1, 0(x0)\nlw x2, 64(x0)\n")
        issued, _ = ruu.issue_and_execute()
        assert issued == [e[0].seq, e[1].seq]
        assert ruu.memory_stalls == 0

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
        assert e[1].state is EntryState.COMPLETED and e[0].state is not EntryState.COMPLETED
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
        assert ruu.regfile.read("int", 1) == 15

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
            assert not _available(ruu.fabric, FUType.INT_MDU)
        ruu.tick()
        assert e.state is EntryState.COMPLETED
        assert _available(ruu.fabric, FUType.INT_MDU)  # released at completion
        assert ruu.clock == 4

    def test_single_cycle_completes_after_one_tick(self):
        ruu = _ruu()
        (e,) = _dispatch(ruu, "add x1, x2, x3\n")
        ruu.issue_and_execute()
        ruu.tick()
        assert e.state is EntryState.COMPLETED

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
        assert not _available(ruu.fabric, FUType.INT_MDU)
        ruu.tick()
        assert new.state is EntryState.COMPLETED
        assert _available(ruu.fabric, FUType.INT_MDU)


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
        assert not _available(ruu.fabric, FUType.FP_MDU)
        ruu.flush_younger(-1)
        assert _available(ruu.fabric, FUType.FP_MDU)

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
        assert not ruu.wakeup.full
        _dispatch(ruu, "add x7, x8, x9\n")  # row reusable


class TestWaitingDemand:
    """``waiting_demand`` is the packed per-type count of the WAITING
    entries: after every cycle it unpacks to the types of
    ``ready_unscheduled()``."""

    @staticmethod
    def _types(ruu):
        return tuple(
            sum(1 for i in ruu.ready_unscheduled() if i.fu_type is t)
            for t in FU_TYPES
        )

    def _check_every_cycle(self, program, pipelined, window=7):
        proc = steering_processor(
            program,
            ProcessorParams(window_size=window, pipelined_scheduling=pipelined),
        )
        checked = 0

        class Check:
            def on_stage(self, proc, stage):
                pass

            def on_cycle(self, proc, *args):
                nonlocal checked
                ruu = proc.ruu
                assert unpack_counts(ruu.waiting_demand) == TestWaitingDemand._types(ruu)
                checked += 1

        proc.observer = Check()
        result = proc.run(max_cycles=20_000)
        assert checked == result.cycles
        return result

    def test_dispatch_grant_and_flush_update_it(self):
        ruu = _ruu()
        e = _dispatch(ruu, "fdiv f1, f2, f3\nadd x1, x2, x3\nadd x4, x1, x5\n")
        assert unpack_counts(ruu.waiting_demand) == (2, 0, 0, 0, 1)
        _cycle(ruu)  # fdiv and the first add are granted
        assert unpack_counts(ruu.waiting_demand) == (1, 0, 0, 0, 0)
        ruu.flush_younger(e[1].seq)  # squashes the still-waiting add
        assert ruu.waiting_demand == 0

    def test_completion_and_retire_leave_it(self):
        ruu = _ruu()
        _dispatch(ruu, "add x1, x2, x3\nfdiv f1, f2, f3\nfdiv f4, f5, f6\n")
        _cycle(ruu)  # the add and one fdiv are granted; one fdiv waits
        demand = ruu.waiting_demand
        assert unpack_counts(demand) == (0, 0, 0, 0, 1)
        _cycle(ruu, 3)  # the add completes; the first fdiv still runs
        ruu.retire()
        assert ruu.waiting_demand == demand

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_matches_ready_unscheduled_on_bubble_sort(self, pipelined):
        result = self._check_every_cycle(bubble_sort(n=12).program, pipelined)
        assert result.halted and result.flushes >= 10

    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_ready_unscheduled_on_fuzz_programs(self, seed, pipelined):
        result = self._check_every_cycle(
            generate_program(seed), pipelined, window=(7, 11, 3)[seed % 3]
        )
        assert result.halted


class TestBusyUnitCycles:
    def test_completion_adds_the_latency(self):
        ruu = _ruu()
        _dispatch(ruu, "fdiv f1, f2, f3\n")
        _cycle(ruu, 20)
        assert ruu.busy_unit_cycles()[FUType.FP_MDU] == 16

    def test_in_flight_counts_up_to_now(self):
        ruu = _ruu()
        _dispatch(ruu, "fdiv f1, f2, f3\n")
        _cycle(ruu, 5)
        assert ruu.busy_unit_cycles()[FUType.FP_MDU] == 5

    def test_squash_counts_the_cycles_before_the_flush(self):
        ruu = _ruu()
        _dispatch(ruu, "fdiv f1, f2, f3\n")
        _cycle(ruu, 5)
        ruu.flush_younger(-1)
        _cycle(ruu, 5)
        assert ruu.busy_unit_cycles()[FUType.FP_MDU] == 5


class TestControl:
    def test_branch_resolution_reported(self):
        ruu = _ruu()
        (e,) = _dispatch(ruu, "beq x0, x0, 5\n", predicted={0: 5})
        issued, resolutions = ruu.issue_and_execute()
        assert issued == [e.seq]
        (res,) = resolutions
        assert res.entry is e
        assert res.taken and res.target == 5 and not res.mispredicted

    def test_mispredict_detected(self):
        ruu = _ruu()
        _dispatch(ruu, "beq x0, x0, 5\n", predicted={0: 1})
        _, resolutions = ruu.issue_and_execute()
        assert resolutions[0].mispredicted

    def test_jal_writes_link(self):
        ruu = _ruu()
        _dispatch(ruu, "jal x1, 3\n", predicted={0: 3})
        _cycle(ruu, 2)
        ruu.retire()
        assert ruu.regfile.read("int", 1) == 1  # return address = pc + 1


class TestProducerBinding:
    """Each entry is bound at dispatch to the in-flight entries producing
    its sources; an operand is forwarded from its producer while that is in
    flight and read from the register file once it has retired."""

    def test_forwarded_from_a_completed_producer_in_flight(self):
        ruu = _ruu()
        ruu.regfile.write("int", 2, 20)
        ruu.regfile.write("int", 3, 22)
        e = _dispatch(ruu, "add x1, x2, x3\nadd x4, x1, x0\n")
        assert e[1].producer1 is e[0]
        _cycle(ruu)  # the producer issues and completes
        assert e[0].state is EntryState.COMPLETED and not e[0].retired
        assert ruu.regfile.read("int", 1) == 0  # not committed yet
        _cycle(ruu)
        assert e[1].result == 42

    def test_read_from_the_register_file_after_the_producer_retired(self):
        ruu = _ruu()
        ruu.regfile.write("int", 2, 20)
        ruu.regfile.write("int", 3, 22)
        e = _dispatch(ruu, "add x1, x2, x3\nadd x4, x1, x0\n")
        _cycle(ruu)
        assert ruu.retire() == [e[0]]
        assert e[0].retired and e[1].producer1 is e[0]
        # retirement committed x1; overwrite it to see where the read goes
        ruu.regfile.write("int", 1, 99)
        _cycle(ruu)
        assert e[1].result == 99
        # the binding recorded at dispatch is unchanged
        assert e[1].sources[0].producer_seq == e[0].seq

    def test_retirement_drops_the_producer_links(self):
        """A dependence chain must not keep every retired entry alive."""
        ruu = _ruu()
        e = _dispatch(ruu, "add x1, x1, x1\nadd x1, x1, x1\nadd x1, x1, x1\n")
        assert e[2].producer1 is e[1] and e[1].producer1 is e[0]
        _cycle(ruu)
        ruu.retire()
        _cycle(ruu)
        assert ruu.retire() == [e[1]]
        assert e[1].producer1 is None and e[1].producer2 is None
        assert e[2].producer1 is e[1]  # still in flight: keeps its link

    def test_read_before_the_producer_completed_raises(self):
        ruu = _ruu()
        e = _dispatch(ruu, "mul x1, x2, x3\nadd x4, x1, x0\n")
        _cycle(ruu)  # the mul issues (latency 4)
        assert e[0].state is EntryState.ISSUED
        # assert the mul's result-available line early: the add requests, is
        # granted, and its operand read finds the mul still executing
        ruu._completed_bits |= 1 << e[0].row
        with pytest.raises(SchedulerError, match="before producer seq=0 completed"):
            ruu.issue_and_execute()

    def test_dependence_mask_names_the_producer_rows(self):
        ruu = _ruu()
        e = _dispatch(ruu, "lw x1, 0(x0)\nmul x2, x5, x6\nadd x3, x1, x2\n")
        assert (e[2].producer1, e[2].producer2) == (e[0], e[1])
        dep_bits = ruu.wakeup.rows[e[2].row].dep_bits
        assert dep_bits == (1 << e[0].row) | (1 << e[1].row)
        assert [b.producer_seq for b in e[2].sources] == [e[0].seq, e[1].seq]

    def test_youngest_writer_wins(self):
        ruu = _ruu()
        e = _dispatch(ruu, "add x1, x2, x3\nadd x1, x4, x5\nadd x6, x1, x1\n")
        assert e[2].producer1 is e[1] and e[2].producer2 is e[1]

    def test_flush_leaves_only_surviving_producers(self):
        ruu = _ruu()
        e = _dispatch(
            ruu,
            "add x1, x2, x3\nadd x2, x1, x0\nadd x1, x2, x0\n"
            "add x3, x1, x2\nadd x4, x3, x1\n",
        )
        ruu.flush_younger(e[1].seq)
        survivors = list(ruu._order)
        assert survivors == e[:2]
        assert set(map(id, ruu._rename.values())) <= set(map(id, survivors))
        assert ruu._rename == {("int", 1): e[0], ("int", 2): e[1]}
        for entry in survivors:
            for producer in (entry.producer1, entry.producer2):
                assert producer is None or any(producer is s for s in survivors)
        # new dispatches bind to the survivors
        (new,) = _dispatch(ruu, "add x5, x1, x2\n")
        assert (new.producer1, new.producer2) == (e[0], e[1])


class TestStallCounts:
    """The RUU sums each issue step's stall attribution, reused idle steps
    included."""

    def test_contention_and_resource_blocking(self):
        ruu = _ruu()
        _dispatch(ruu, "fmul f1, f2, f3\nfmul f4, f5, f6\n")
        _cycle(ruu)  # both request the one FP-MDU: one loses
        assert ruu.contention_cycles == 1
        assert ruu.resource_blocked_cycles == 0
        # the loser is ready on data but the unit is busy: blocked each
        # step until the first fmul completes, reused idle steps included
        _cycle(ruu, 3)
        assert ruu.contention_cycles == 1
        assert ruu.resource_blocked_cycles == 3


class TestDerivedRequests:
    """The issue step evaluates the wake-up logic once, for the rows ready
    on data, and derives the requests from it and the Eq. 1 bus.  With the
    availability cross-check armed it compares them with a direct
    evaluation at the bus."""

    @staticmethod
    def _blocked_fmul(monkeypatch):
        monkeypatch.setattr("repro.utils.env.CROSSCHECK", True)
        ruu = _ruu()
        e = _dispatch(ruu, "fmul f1, f2, f3\nfmul f4, f5, f6\n")
        _cycle(ruu)  # the first fmul takes the one FP-MDU
        # the second is ready on data and blocked on its unit type
        assert ruu.wakeup.requests_mask(0b11111, ruu._completed_bits) == 1 << e[1].row
        return ruu, e

    def test_blocked_row_raises_no_request(self, monkeypatch):
        ruu, e = self._blocked_fmul(monkeypatch)
        blocked = ruu.resource_blocked_cycles
        assert ruu.issue_and_execute() == ((), ())
        assert ruu.resource_blocked_cycles == blocked + 1
        assert e[1].state is EntryState.WAITING

    def test_wrong_derived_request_mask_raises(self, monkeypatch):
        ruu, e = self._blocked_fmul(monkeypatch)
        # seed a wrong derivation: the waiting fmul claims the integer ALU's
        # line, which is up, while its wake-up row still needs the FP-MDU
        e[1].fu_type = FUType.INT_ALU
        with pytest.raises(SchedulerError, match="derived request mask diverged"):
            ruu.issue_and_execute()
