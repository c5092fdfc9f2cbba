"""Tests for the Fig. 3 shifters: the hard-wired shifts of the predefined
CEM generators and the Fig. 3(c) live shift control of the current one."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.netlist import Netlist
from repro.circuits.selection_netlist import (
    build_cem_generator,
    build_cem_term,
    wired_shift,
)
from repro.errors import CircuitError


def _wired(shift: int) -> Netlist:
    """One hard-wired shifter: a one-term CEM generator."""
    nl = Netlist()
    nl.output_bus("y", build_cem_generator(nl, [nl.input_bus("v", 3)], [shift]))
    return nl


def _live() -> Netlist:
    """One Fig. 3(c) term: required ``v`` shifted by the control of ``count``."""
    nl = Netlist()
    v = nl.input_bus("v", 3)
    count = nl.input_bus("count", 3)
    nl.output_bus("y", build_cem_term(nl, v, count))
    return nl


class TestBarrelShift:
    @given(st.integers(0, 7), st.integers(0, 2))
    def test_matches_python_shift(self, value, shift):
        assert _wired(shift).evaluate(v=value)["y"] == value >> shift

    def test_divide_by_4_2_1(self):
        assert _wired(2).evaluate(v=7)["y"] == 1  # 7 // 4
        assert _wired(1).evaluate(v=7)["y"] == 3  # 7 // 2
        assert _wired(0).evaluate(v=7)["y"] == 7  # 7 // 1

    def test_rejects_oversized_value(self):
        with pytest.raises(CircuitError):
            _wired(0).evaluate(v=8)

    def test_rejects_out_of_range_shift(self):
        with pytest.raises(CircuitError):
            _wired(3)
        with pytest.raises(CircuitError):
            _wired(-1)


class TestCemShiftControl:
    """Fig. 3(c): upper two bits of the available count select the divisor."""

    @pytest.mark.parametrize(
        "available,shift",
        [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2), (6, 2), (7, 2)],
    )
    def test_full_table(self, available, shift):
        assert wired_shift(available) == shift
        terms = _live().truth_table(count=available)["y"]
        assert terms == [v >> shift for v in range(8)]

    @given(st.integers(0, 7))
    def test_is_floor_log2_capped_at_2(self, available):
        """The rule is 'available rounded down to a power of two', capped."""
        if available >= 4:
            expected = 2
        elif available >= 2:
            expected = 1
        else:
            expected = 0
        assert wired_shift(available) == expected

    def test_rejects_oversized(self):
        with pytest.raises(CircuitError):
            _live().evaluate(v=0, count=8)
