"""Tests for the netlist's comparator blocks: the unsigned less-than and
the minimal-error selector, exhaustively against plain arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.netlist import Netlist, build_less_than, build_minimum_selector
from repro.errors import CircuitError


def _less_than() -> Netlist:
    nl = Netlist()
    a, b = nl.input_bus("a", 6), nl.input_bus("b", 6)
    nl.output_bus("lt", [build_less_than(nl, a, b)])
    return nl


def _selector(n: int) -> Netlist:
    nl = Netlist()
    buses = [nl.input_bus(f"c{i}", 6) for i in range(n)]
    nl.output_bus("index", build_minimum_selector(nl, buses))
    return nl


def _index(values) -> int:
    out = _selector(len(values)).evaluate(**{f"c{i}": v for i, v in enumerate(values)})
    return out["index"]


class TestLessThan:
    def test_matches_python(self):
        lt = _less_than().truth_table()["lt"]
        for p, got in enumerate(lt):
            assert got == int((p & 63) < (p >> 6))

    def test_not_less_when_equal(self):
        for v in range(64):
            assert _less_than().evaluate(a=v, b=v)["lt"] == 0

    def test_rejects_oversized(self):
        with pytest.raises(CircuitError):
            _less_than().evaluate(a=64, b=0)


class TestMinimumIndex:
    def test_simple_minimum(self):
        assert _index([5, 3, 7, 1]) == 3

    def test_tie_prefers_earliest_index(self):
        assert _index([2, 2, 2, 2]) == 0
        assert _index([5, 2, 2, 9]) == 1

    def test_single_candidate(self):
        assert _index([9]) == 0

    def test_rejects_empty(self):
        with pytest.raises(CircuitError):
            build_minimum_selector(Netlist(), [])

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=4))
    def test_matches_python_min_with_first_tie(self, values):
        assert values[_index(values)] == min(values)
        assert _index(values) == values.index(min(values))
