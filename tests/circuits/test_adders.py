"""Tests for the netlist's adder blocks against plain arithmetic: the
full-adder cell, the ripple-carry adder, the requirement encoder's
saturation and the CEM generator's five-operand accumulation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.netlist import Netlist, build_ripple_adder
from repro.circuits.selection_netlist import (
    build_accumulator,
    build_cem_generator,
    build_requirement_encoder,
)
from repro.errors import CircuitError


def _adder(width: int) -> Netlist:
    """A ``width``-bit ripple-carry adder with a carry-in bus."""
    nl = Netlist()
    a, b = nl.input_bus("a", width), nl.input_bus("b", width)
    cin = nl.input_bus("cin", 1)
    s, cout = build_ripple_adder(nl, a, b, cin=cin[0])
    nl.output_bus("sum", s)
    nl.output_bus("cout", [cout])
    return nl


class TestFullAdder:
    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    @pytest.mark.parametrize("cin", [0, 1])
    def test_truth_table(self, a, b, cin):
        out = _adder(1).evaluate(a=a, b=b, cin=cin)
        assert out["sum"] + 2 * out["cout"] == a + b + cin

    def test_rejects_non_bit(self):
        with pytest.raises(CircuitError):
            _adder(1).evaluate(a=2, b=0, cin=0)


class TestRippleCarry:
    def test_matches_arithmetic_8bit(self):
        table = _adder(8).truth_table(cin=0)
        for b in range(256):
            for a in range(256):
                p = a | b << 8
                assert table["sum"][p] == (a + b) & 0xFF
                assert table["cout"][p] == (a + b) >> 8

    def test_3bit_with_carry_in(self):
        table = _adder(3).truth_table()
        for p, (s, cout) in enumerate(zip(table["sum"], table["cout"])):
            a, b, cin = p & 7, (p >> 3) & 7, p >> 6
            assert s + 8 * cout == a + b + cin

    def test_rejects_oversized_input(self):
        with pytest.raises(CircuitError):
            _adder(3).evaluate(a=8, b=0, cin=0)
        with pytest.raises(CircuitError):
            _adder(3).evaluate(a=0, b=8, cin=0)

    def test_rejects_bad_carry(self):
        with pytest.raises(CircuitError):
            _adder(3).evaluate(a=0, b=0, cin=2)


class TestSaturatingAdd:
    """The requirement encoder counts, then saturates at 7."""

    @staticmethod
    def _count(n: int) -> int:
        nl = Netlist()
        column = nl.input_bus("column", 14)
        nl.output_bus("count", build_requirement_encoder(nl, column))
        return nl.evaluate(column=(1 << n) - 1)["count"]

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_saturates_at_7(self, a, b):
        assert self._count(a + b) == min(7, a + b)

    def test_exact_saturation_boundary(self):
        assert self._count(3 + 4) == 7
        assert self._count(4 + 4) == 7
        assert self._count(7 + 7) == 7


class TestMultiOperand:
    """The Fig. 3(b) adder: a CEM generator with every shift zero."""

    @staticmethod
    def _sum(values, width: int = 6) -> int:
        nl = Netlist()
        buses = [nl.input_bus(f"v{i}", 3) for i in range(len(values))]
        total = [nl.zero] * width
        for bus in buses:
            total = build_accumulator(nl, total, bus)
        nl.output_bus("sum", total)
        return nl.evaluate(**{f"v{i}": v for i, v in enumerate(values)})["sum"]

    def test_paper_parameters(self):
        # five 3-bit operands into a 6-bit sum
        for values in ([7, 7, 7, 7, 7], [0, 0, 0, 0, 0], [1, 2, 3, 4, 5]):
            nl = Netlist()
            buses = [nl.input_bus(f"v{i}", 3) for i in range(5)]
            nl.output_bus("error", build_cem_generator(nl, buses, [0] * 5))
            out = nl.evaluate(**{f"v{i}": v for i, v in enumerate(values)})
            assert out["error"] == sum(values)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=5))
    def test_matches_sum(self, values):
        assert self._sum(values) == sum(values) & 0x3F

    def test_truncates_like_hardware(self):
        # 4-bit result register wraps
        assert self._sum([7, 7, 7], width=4) == 21 % 16

    def test_rejects_wide_operand(self):
        nl = Netlist()
        with pytest.raises(CircuitError):
            build_accumulator(nl, nl.input_bus("total", 3), nl.input_bus("term", 4))
