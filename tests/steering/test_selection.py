"""Tests for the four-stage configuration-selection unit (Fig. 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fabric.configuration import FFU_COUNTS, PREDEFINED_CONFIGS
from repro.isa.assembler import assemble
from repro.isa.futypes import COUNT_ONE, FU_TYPES, FUType
from repro.steering.selection import ConfigurationSelectionUnit, required_of

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


class TestSelectionMemo:
    """select_demand() memoises per unit, keyed by the packed demand, and
    forgets its results when the configured counts change."""

    def test_memo_hit_returns_identical_result(self):
        unit = ConfigurationSelectionUnit()
        demand = 3 * COUNT_ONE[FUType.LSU]
        first = unit.select_demand(demand, _FFUS_ONLY)
        assert unit.select_demand(demand, _FFUS_ONLY) is first

    def test_counts_change_clears_the_memo(self):
        unit = ConfigurationSelectionUnit()
        demand = 2 * COUNT_ONE[FUType.INT_ALU]
        unit.select_demand(demand, _FFUS_ONLY)
        unit.select_demand(0, _FFUS_ONLY)
        assert len(unit._memo) == 2
        result = unit.select_demand(demand, _INTEGER_LOADED)
        assert list(unit._memo) == [demand]
        assert result == unit.select_required(required_of(demand), _INTEGER_LOADED)

    def test_units_do_not_share_a_memo(self):
        a, b = ConfigurationSelectionUnit(), ConfigurationSelectionUnit()
        a.select_demand(0, _FFUS_ONLY)
        assert a._memo is not b._memo and not b._memo


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
