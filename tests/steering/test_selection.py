"""Tests for the four-stage configuration-selection unit (Fig. 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fabric.configuration import FFU_COUNTS, PREDEFINED_CONFIGS
from repro.isa.assembler import assemble
from repro.isa.futypes import FU_TYPES
from repro.steering.selection import ConfigurationSelectionUnit, clear_shared_memos

#: configured counts when the integer config is fully loaded (incl. FFUs).
_INTEGER_LOADED = (5, 3, 1, 1, 1)
#: configured counts with only the FFUs (nothing loaded).
_FFUS_ONLY = tuple(FFU_COUNTS[t] for t in FU_TYPES)


def _queue(src: str):
    return assemble(src).instructions


@pytest.fixture
def unit():
    return ConfigurationSelectionUnit()


class TestOutputEncoding:
    def test_two_bit_output(self, unit):
        result = unit.select([], _FFUS_ONLY)
        assert 0 <= result.index <= 3

    def test_four_candidate_errors(self, unit):
        result = unit.select([], _FFUS_ONLY)
        assert len(result.errors) == 4

    def test_empty_queue_keeps_current(self, unit):
        """No requirements -> all errors 0 -> the tie favours current."""
        result = unit.select([], _FFUS_ONLY)
        assert result.keeps_current
        assert result.config is None

    def test_counts_arity_checked(self, unit):
        with pytest.raises(ValueError):
            unit.select([], (1, 2, 3))


class TestSteeringDecisions:
    def test_integer_queue_selects_integer_config(self, unit):
        queue = _queue(
            "add x1, x2, x3\nsub x4, x5, x6\nxor x7, x8, x9\n"
            "and x1, x2, x3\nmul x4, x5, x6\nmul x7, x8, x9\nadd x1, x1, x1\n"
        )
        result = unit.select(queue, _FFUS_ONLY)
        assert result.index == 1
        assert result.config.name == "integer"

    def test_memory_queue_selects_memory_config(self, unit):
        queue = _queue(
            "lw x1, 0(x9)\nlw x2, 4(x9)\nsw x1, 8(x9)\nlw x3, 12(x9)\n"
            "sw x2, 16(x9)\nadd x4, x1, x2\nlw x5, 20(x9)\n"
        )
        result = unit.select(queue, _FFUS_ONLY)
        assert result.config is not None and result.config.name == "memory"

    def test_fp_queue_selects_floating_config(self, unit):
        queue = _queue(
            "fadd f1, f2, f3\nfmul f4, f5, f6\nfsub f7, f8, f9\n"
            "fdiv f1, f2, f3\nflw f4, 0(x1)\nfadd f5, f6, f7\nfmul f8, f9, f1\n"
        )
        result = unit.select(queue, _FFUS_ONLY)
        assert result.config is not None and result.config.name == "floating"

    def test_settled_configuration_is_kept(self, unit):
        """Once the matching config is loaded, current wins (stability)."""
        queue = _queue(
            "add x1, x2, x3\nsub x4, x5, x6\nxor x7, x8, x9\n"
            "and x1, x2, x3\nmul x4, x5, x6\nmul x7, x8, x9\nadd x1, x1, x1\n"
        )
        result = unit.select(queue, _INTEGER_LOADED)
        assert result.keeps_current

    def test_queue_window_limited_to_seven(self, unit):
        queue = _queue("\n".join(["add x1, x2, x3"] * 12))
        result = unit.select(queue, _FFUS_ONLY)
        assert sum(result.required) == 7


class TestTieBreaking:
    def test_current_wins_exact_tie(self, unit):
        # integer config fully loaded, 4 IALU ops: current scores 4>>2 = 1,
        # the integer candidate also 1 -> the tie keeps current
        queue = _queue("\n".join(["add x1, x2, x3"] * 4))
        result = unit.select(queue, _INTEGER_LOADED)
        assert result.errors[0] == result.errors[1] == min(result.errors)
        assert result.keeps_current

    def test_sparse_queue_may_prefer_larger_config(self, unit):
        """A single op can floor a big config's error to 0 (< current's 1):
        the shifter divide makes roomier configs look free.  The tie among
        predefined candidates then resolves by least reconfiguration."""
        queue = _queue("add x1, x2, x3\n")
        result = unit.select(queue, _FFUS_ONLY)
        assert min(result.errors[1:]) <= result.errors[0]

    def test_tied_predefined_resolved_by_least_reconfiguration(self):
        """Among tied predefined configs, the closest to the current state
        (smallest L1 count distance) is chosen."""
        unit = ConfigurationSelectionUnit()
        # a queue needing FP only; make the current state FFUs + nothing.
        # floating config is the only one with extra FP units, so no tie -
        # instead craft a tie between integer and memory with an
        # LSU+IALU-free queue of IMDUs: integer avail 3 (shift 1), memory
        # avail 2 (shift 1) -> equal errors; current counts near memory.
        queue = _queue("mul x1, x2, x3\nmul x4, x5, x6\n")
        near_memory = (3, 2, 4, 1, 1)  # memory config nearly loaded
        result = unit.select(queue, near_memory)
        if not result.keeps_current:
            assert result.config.name == "memory"

    def test_required_counts_exposed(self, unit):
        queue = _queue("lw x1, 0(x2)\nfadd f1, f2, f3\n")
        result = unit.select(queue, _FFUS_ONLY)
        assert result.required == (0, 0, 1, 1, 0)


class TestMemoLRU:
    """The select() memo evicts least-recently-used entries, one at a time."""

    @pytest.fixture(autouse=True)
    def _cold_shared_memo(self):
        # units of one signature share a process-wide memo; start each
        # test from an empty one so earlier selections cannot fill it
        clear_shared_memos()
        yield
        clear_shared_memos()

    def _select_counts(self, unit, n0):
        # distinct memo keys: vary the IALU count of the current-counts
        # vector (arity stays 5, values stay plausible small ints)
        return unit.select([], (n0, 1, 1, 1, 1))

    def test_memo_is_bounded(self):
        import repro.steering.selection as mod

        unit = ConfigurationSelectionUnit()
        original = mod._MEMO_CAPACITY
        mod._MEMO_CAPACITY = 8
        try:
            for i in range(20):
                self._select_counts(unit, i)
            assert len(unit._memo) == 8
        finally:
            mod._MEMO_CAPACITY = original

    def test_hot_entries_survive_eviction(self):
        import repro.steering.selection as mod

        unit = ConfigurationSelectionUnit()
        original = mod._MEMO_CAPACITY
        mod._MEMO_CAPACITY = 4
        try:
            for i in range(4):  # fill: keys 0..3, oldest first
                self._select_counts(unit, i)
            self._select_counts(unit, 0)  # touch key 0 -> most recent
            self._select_counts(unit, 4)  # evicts key 1, NOT key 0
            keys = {k[1][0] for k in unit._memo}
            assert 0 in keys and 1 not in keys
        finally:
            mod._MEMO_CAPACITY = original

    def test_memo_hit_returns_identical_result(self):
        unit = ConfigurationSelectionUnit()
        first = unit.select([], _FFUS_ONLY)
        assert unit.select([], _FFUS_ONLY) is first


class TestSharedMemo:
    """Units with one signature share one memo; other signatures do not."""

    def test_equal_signature_units_share_one_memo(self):
        a, b = ConfigurationSelectionUnit(), ConfigurationSelectionUnit()
        assert a._memo is b._memo
        first = a.select([], _FFUS_ONLY)
        assert b.select([], _FFUS_ONLY) is first

    def test_distinct_signatures_keep_separate_memos(self):
        base = ConfigurationSelectionUnit()
        assert ConfigurationSelectionUnit(queue_size=11)._memo is not base._memo
        assert (
            ConfigurationSelectionUnit(use_exact_metric=True)._memo
            is not base._memo
        )
        assert (
            ConfigurationSelectionUnit(configs=PREDEFINED_CONFIGS[:2])._memo
            is not base._memo
        )


class TestSharedMemoThreads:
    """The serving job queue simulates on a background thread, so the
    shared memo must survive concurrent hits and evictions."""

    def test_concurrent_selects_with_eviction(self):
        import sys
        import threading

        import repro.steering.selection as mod

        keys = [(n0, 1, 1, 1, 1) for n0 in range(20)]
        clear_shared_memos()
        expected = {k: ConfigurationSelectionUnit().select([], k) for k in keys}
        clear_shared_memos()
        original_capacity = mod._MEMO_CAPACITY
        original_interval = sys.getswitchinterval()
        mod._MEMO_CAPACITY = 16  # force evictions under contention
        sys.setswitchinterval(1e-6)
        errors = []
        mismatches = []

        def work(offset):
            unit = ConfigurationSelectionUnit()
            try:
                for i in range(3000):
                    key = keys[(i * 7 + offset) % len(keys)]
                    if unit.select([], key) != expected[key]:
                        mismatches.append(key)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == [] and mismatches == []
            assert len(ConfigurationSelectionUnit()._memo) <= 16
        finally:
            sys.setswitchinterval(original_interval)
            mod._MEMO_CAPACITY = original_capacity
            clear_shared_memos()


class TestExactMetricMode:
    def test_exact_mode_selects_same_on_clear_cut_queues(self):
        approx = ConfigurationSelectionUnit(use_exact_metric=False)
        exact = ConfigurationSelectionUnit(use_exact_metric=True)
        queue = _queue("\n".join(["fmul f1, f2, f3"] * 7))
        assert (
            approx.select(queue, _FFUS_ONLY).config.name
            == exact.select(queue, _FFUS_ONLY).config.name
            == "floating"
        )

    @given(st.lists(st.sampled_from(["add x1, x2, x3", "mul x1, x2, x3",
                                     "lw x1, 0(x2)", "fadd f1, f2, f3",
                                     "fmul f1, f2, f3"]), max_size=7))
    def test_selection_total_function(self, lines):
        """Property: the unit always yields a valid 2-bit selection."""
        unit = ConfigurationSelectionUnit()
        queue = _queue("\n".join(lines) + "\n") if lines else []
        result = unit.select(queue, _FFUS_ONLY)
        assert 0 <= result.index <= 3
        assert result.errors[result.index] == min(result.errors)
