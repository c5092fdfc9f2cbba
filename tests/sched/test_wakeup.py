"""Tests for the wake-up array (Figs. 5 and 6), including the paper's
seven-instruction worked example."""

import pytest

from repro.errors import SchedulerError
from repro.isa.futypes import FUType
from repro.sched.wakeup import WakeupArray


def _bits(*types):
    v = 0
    for t in types:
        v |= 1 << t.bit_index
    return v


ALL_RESOURCES = _bits(*FUType)


class TestInsertRemove:
    def test_insert_allocates_rows_in_order(self):
        arr = WakeupArray(4)
        assert arr.insert(FUType.INT_ALU, 0) == 0
        assert arr.insert(FUType.LSU, 0) == 1
        assert len(arr) == 2
        assert arr.free_rows() == [2, 3]

    def test_full_array_rejects(self):
        arr = WakeupArray(1)
        arr.insert(FUType.INT_ALU, 0)
        assert arr.full
        with pytest.raises(SchedulerError):
            arr.insert(FUType.LSU, 0)

    def test_dependency_on_invalid_row_rejected(self):
        arr = WakeupArray(4)
        with pytest.raises(SchedulerError):
            arr.insert(FUType.INT_ALU, 1 << 2)  # row 2 unoccupied

    def test_remove_frees_and_clears_column(self):
        arr = WakeupArray(4)
        r0 = arr.insert(FUType.INT_ALU, 0)
        r1 = arr.insert(FUType.INT_ALU, 1 << r0)
        arr.remove(r0)
        # consumer no longer waits on the retired producer
        assert arr.requests(ALL_RESOURCES, 0) == [r1]

    def test_remove_unoccupied_rejected(self):
        with pytest.raises(SchedulerError):
            WakeupArray(4).remove(0)


class TestRequestLogic:
    def test_requests_require_resource(self):
        arr = WakeupArray(4)
        arr.insert(FUType.FP_MDU, 0)
        assert arr.requests(0, 0) == []
        assert arr.requests(_bits(FUType.FP_MDU), 0) == [0]
        assert arr.requests(_bits(FUType.FP_ALU), 0) == []

    def test_requests_require_results(self):
        arr = WakeupArray(4)
        r0 = arr.insert(FUType.INT_ALU, 0)
        r1 = arr.insert(FUType.INT_MDU, 1 << r0)
        assert arr.requests(ALL_RESOURCES, 0) == [r0]
        assert arr.requests(ALL_RESOURCES, 1 << r0) == [r0, r1]

    def test_scheduled_bit_suppresses(self):
        arr = WakeupArray(4)
        r0 = arr.insert(FUType.INT_ALU, 0)
        arr.mark_scheduled(r0)
        assert arr.requests(ALL_RESOURCES, 0) == []

    def test_reschedule_reactivates(self):
        arr = WakeupArray(4)
        r0 = arr.insert(FUType.INT_ALU, 0)
        arr.mark_scheduled(r0)
        arr.reschedule(r0)
        assert arr.requests(ALL_RESOURCES, 0) == [r0]

    def test_double_schedule_rejected(self):
        arr = WakeupArray(4)
        arr.insert(FUType.INT_ALU, 0)
        arr.mark_scheduled(0)
        with pytest.raises(SchedulerError):
            arr.mark_scheduled(0)

    def test_bus_width_checked(self):
        arr = WakeupArray(4)
        with pytest.raises(SchedulerError):
            arr.requests(1 << 5, 0)


class TestSharedMemo:
    """Arrays of one size share the kernel's memos, so a new array (a new
    job's) starts warm."""

    @staticmethod
    def _fill(arr):
        a = arr.insert(FUType.INT_ALU, 0)
        arr.insert(FUType.LSU, 1 << a)
        arr.insert(FUType.FP_MDU, 0)
        return arr

    def test_second_array_of_a_size_hits_the_memo(self):
        first = self._fill(WakeupArray(n_entries=6))
        mask = first.requests_mask(0b10111, 0)
        rows = first.requests(0b10111, 0)
        memo, list_memo = dict(first._mask_memo), dict(first._list_memo)
        second = self._fill(WakeupArray(n_entries=6))
        assert second._mask_memo is first._mask_memo
        assert second._list_memo is first._list_memo
        # the same state evaluates from the memo: nothing new is filed
        assert second.requests_mask(0b10111, 0) == mask
        assert second.requests(0b10111, 0) == rows
        assert second._mask_memo == memo and second._list_memo == list_memo

    def test_sizes_keep_their_own_memos(self):
        assert WakeupArray(5)._mask_memo is not WakeupArray(6)._mask_memo


class TestPaperExample:
    """The Figs. 4-5 worked example: Shift, Sub, Add, Mul, Load, FPMul,
    FPAdd with the paper's dependency graph."""

    def _build(self):
        arr = WakeupArray(7)
        shift = arr.insert(FUType.INT_ALU, 0)                   # E1 Shift
        sub = arr.insert(FUType.INT_ALU, 0)                     # E2 Sub
        add = arr.insert(FUType.INT_ALU, 1 << shift | 1 << sub)  # E3 Add
        mul = arr.insert(FUType.INT_MDU, 1 << sub)              # E4 Mul <- Sub
        load = arr.insert(FUType.LSU, 0)                        # E5 Load
        fpmul = arr.insert(FUType.FP_MDU, 1 << load)            # E6 FPMul <- Load
        fpadd = arr.insert(FUType.FP_ALU, 1 << fpmul)           # E7 FPAdd <- FPMul
        return arr, (shift, sub, add, mul, load, fpmul, fpadd)

    def test_load_row_matches_figure5(self):
        arr, rows = self._build()
        load = arr.rows[rows[4]]
        assert load.resource_bits == 1 << FUType.LSU.bit_index
        assert load.dep_bits == 0  # depends on no other entry

    def test_mul_row_matches_figure5(self):
        arr, rows = self._build()
        mul = arr.rows[rows[3]]
        assert mul.resource_bits == 1 << FUType.INT_MDU.bit_index
        assert mul.dep_bits == 1 << rows[1]  # needs the Sub result

    def test_initial_requests_are_the_independent_entries(self):
        arr, (shift, sub, add, mul, load, fpmul, fpadd) = self._build()
        assert arr.requests(ALL_RESOURCES, 0) == [shift, sub, load]

    def test_dataflow_wavefronts(self):
        arr, (shift, sub, add, mul, load, fpmul, fpadd) = self._build()
        # wave 1 completes: shift, sub, load
        avail = (1 << shift) | (1 << sub) | (1 << load)
        for r in (shift, sub, load):
            arr.mark_scheduled(r)
        assert arr.requests(ALL_RESOURCES, avail) == [add, mul, fpmul]
        # wave 2 completes: fpmul -> fpadd wakes
        for r in (add, mul, fpmul):
            arr.mark_scheduled(r)
        avail |= (1 << add) | (1 << mul) | (1 << fpmul)
        assert arr.requests(ALL_RESOURCES, avail) == [fpadd]

    def test_render_shows_matrix(self):
        arr, rows = self._build()
        text = arr.render({rows[0]: "(Shift) E1", rows[4]: "(Load) E5"})
        assert "IALU" in text and "FPMDU" in text
        assert "(Shift) E1" in text
        assert "(Load) E5" in text
        assert "E7" in text  # entry columns


class TestValidation:
    def test_positive_size_required(self):
        with pytest.raises(SchedulerError):
            WakeupArray(0)

    def test_reschedule_unoccupied_rejected(self):
        with pytest.raises(SchedulerError):
            WakeupArray(2).reschedule(0)
