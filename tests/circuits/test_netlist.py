"""Gate-level netlists verified against plain integer arithmetic, and the
bit-sliced truth table against one-pattern evaluation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.netlist import (
    Netlist,
    build_less_than,
    build_minimum_selector,
    build_popcount,
    build_ripple_adder,
)
from repro.circuits.selection_netlist import build_cem_generator
from repro.errors import CircuitError


class TestNetlistBasics:
    def test_constants(self):
        nl = Netlist()
        nl.output_bus("z", [nl.zero, nl.one])
        assert nl.evaluate() == {"z": 0b10}

    def test_primitive_gates(self):
        nl = Netlist()
        a = nl.input_bus("a", 1)
        b = nl.input_bus("b", 1)
        nl.output_bus("and", [nl.and_(a[0], b[0])])
        nl.output_bus("or", [nl.or_(a[0], b[0])])
        nl.output_bus("xor", [nl.xor(a[0], b[0])])
        nl.output_bus("not", [nl.not_(a[0])])
        for av in (0, 1):
            for bv in (0, 1):
                out = nl.evaluate(a=av, b=bv)
                assert out["and"] == (av & bv)
                assert out["or"] == (av | bv)
                assert out["xor"] == (av ^ bv)
                assert out["not"] == (av ^ 1)

    def test_mux(self):
        nl = Netlist()
        s = nl.input_bus("s", 1)
        nl.output_bus("y", [nl.mux(s[0], nl.zero, nl.one)])
        assert nl.evaluate(s=0)["y"] == 0
        assert nl.evaluate(s=1)["y"] == 1

    def test_gate_count_and_depth_tracked(self):
        nl = Netlist()
        a = nl.input_bus("a", 1)
        y = nl.and_(nl.and_(a[0], nl.one), nl.one)
        nl.output_bus("y", [y])
        assert nl.gate_count == 2
        assert nl.depth == 2

    def test_input_validation(self):
        nl = Netlist()
        nl.input_bus("a", 2)
        with pytest.raises(CircuitError, match="already declared"):
            nl.input_bus("a", 2)
        with pytest.raises(CircuitError, match="missing value"):
            nl.evaluate()
        with pytest.raises(CircuitError, match="does not fit"):
            nl.evaluate(a=4)
        with pytest.raises(CircuitError, match="unknown input"):
            nl.evaluate(a=0, b=0)

    def test_bad_gate_rejected(self):
        nl = Netlist()
        with pytest.raises(CircuitError):
            nl.gate("NAND3", 0, 0)
        with pytest.raises(CircuitError):
            nl.gate("AND", 0)


class TestTruthTable:
    def _adder(self):
        nl = Netlist()
        s, cout = build_ripple_adder(nl, nl.input_bus("a", 3), nl.input_bus("b", 3))
        nl.output_bus("sum", s + [cout])
        return nl

    def test_patterns_enumerate_free_buses_lsb_first(self):
        sums = self._adder().truth_table()["sum"]
        assert sums == [a + b for b in range(8) for a in range(8)]

    def test_fixed_buses_hold_their_value(self):
        assert self._adder().truth_table(b=5)["sum"] == [a + 5 for a in range(8)]

    def test_every_pattern_matches_one_pattern_evaluation(self):
        nl = Netlist()
        buses = [nl.input_bus(f"c{i}", 3) for i in range(3)]
        nl.output_bus("index", build_minimum_selector(nl, buses))
        nl.output_bus("wide", build_popcount(nl, [b for bus in buses for b in bus], 9))
        table = nl.truth_table()
        for p in range(1 << 9):
            out = nl.evaluate(c0=p & 7, c1=(p >> 3) & 7, c2=p >> 6)
            assert out == {name: column[p] for name, column in table.items()}

    def test_rejects_unknown_and_oversized_buses(self):
        with pytest.raises(CircuitError, match="unknown input"):
            self._adder().truth_table(c=0)
        with pytest.raises(CircuitError, match="does not fit"):
            self._adder().truth_table(a=8)


class TestAdderNetlist:
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_matches_arithmetic(self, a, b):
        nl = Netlist()
        abus = nl.input_bus("a", 6)
        bbus = nl.input_bus("b", 6)
        s, cout = build_ripple_adder(nl, abus, bbus)
        nl.output_bus("sum", s)
        nl.output_bus("cout", [cout])
        out = nl.evaluate(a=a, b=b)
        assert out["sum"] == (a + b) & 63
        assert out["cout"] == (a + b) >> 6

    def test_width_mismatch(self):
        nl = Netlist()
        with pytest.raises(CircuitError):
            build_ripple_adder(nl, nl.input_bus("a", 2), nl.input_bus("b", 3))


class TestPopcountNetlist:
    @given(st.integers(0, 127))
    def test_matches_bit_count(self, v):
        nl = Netlist()
        bits = nl.input_bus("v", 7)
        nl.output_bus("count", build_popcount(nl, bits, 3))
        assert nl.evaluate(v=v)["count"] == bin(v).count("1")


class TestShifterNetlist:
    def test_matches_right_shift(self):
        """A hard-wired shift is wiring: the generator of one term is
        ``v >> s``."""
        for s in range(3):
            nl = Netlist()
            vbus = nl.input_bus("v", 3)
            nl.output_bus("y", build_cem_generator(nl, [vbus], [s]))
            assert nl.truth_table()["y"] == [v >> s for v in range(8)]


class TestComparatorNetlist:
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_matches_less_than(self, a, b):
        nl = Netlist()
        abus = nl.input_bus("a", 6)
        bbus = nl.input_bus("b", 6)
        nl.output_bus("lt", [build_less_than(nl, abus, bbus)])
        assert nl.evaluate(a=a, b=b)["lt"] == int(a < b)


class TestMinimumSelectorNetlist:
    @given(st.lists(st.integers(0, 63), min_size=2, max_size=4))
    def test_matches_functional_selector(self, values):
        nl = Netlist()
        buses = [nl.input_bus(f"c{i}", 6) for i in range(len(values))]
        nl.output_bus("index", build_minimum_selector(nl, buses))
        got = nl.evaluate(**{f"c{i}": v for i, v in enumerate(values)})["index"]
        assert got == values.index(min(values))

    def test_tie_keeps_candidate_zero(self):
        nl = Netlist()
        buses = [nl.input_bus(f"c{i}", 6) for i in range(4)]
        nl.output_bus("index", build_minimum_selector(nl, buses))
        assert nl.evaluate(c0=5, c1=5, c2=5, c3=5)["index"] == 0


class TestCemNetlist:
    @given(st.tuples(*[st.integers(0, 7)] * 5))
    def test_matches_functional_cem(self, required):
        shifts = (2, 1, 0, 0, 1)
        nl = Netlist()
        buses = [nl.input_bus(f"r{i}", 3) for i in range(5)]
        nl.output_bus("error", build_cem_generator(nl, buses, list(shifts)))
        got = nl.evaluate(**{f"r{i}": v for i, v in enumerate(required)})["error"]
        assert got == sum(r >> s for r, s in zip(required, shifts))

    def test_gate_count_is_concrete(self):
        """A few hundred gates per generator: five 6-bit ripple adds."""
        nl = Netlist()
        buses = [nl.input_bus(f"r{i}", 3) for i in range(5)]
        nl.output_bus("error", build_cem_generator(nl, buses, [2, 1, 0, 0, 1]))
        assert 50 < nl.gate_count < 500
        assert nl.depth < 70
