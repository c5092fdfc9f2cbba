"""Tests for the E-COST accounting: 2-input gate counts and logic depths
of the netlist's blocks and of the synthesised selection unit."""

from repro.circuits.netlist import (
    Netlist,
    build_less_than,
    build_minimum_selector,
    build_popcount,
    build_ripple_adder,
)
from repro.circuits.selection_netlist import (
    build_cem_generator,
    build_cem_term,
    build_requirement_encoder,
    build_selection_unit,
    build_unit_decoder,
)


def _chain(nl: Netlist, net: int, length: int) -> int:
    """``length`` NOT gates in series."""
    for _ in range(length):
        net = nl.not_(net)
    return net


def _adder_gates(width: int) -> int:
    nl = Netlist()
    build_ripple_adder(nl, nl.input_bus("a", width), nl.input_bus("b", width))
    return nl.gate_count


class TestCombinators:
    def test_in_series_adds_depth(self):
        nl = Netlist()
        a = nl.input_bus("a", 1)
        first = _chain(nl, a[0], 3)
        nl.end_stage("first", [first])
        second = _chain(nl, first, 2)
        nl.end_stage("second", [second])
        assert nl.stages == [("first", 3, 3), ("second", 2, 5)]

    def test_in_parallel_max_depth(self):
        nl = Netlist()
        a = nl.input_bus("a", 1)
        nl.output_bus("x", [_chain(nl, a[0], 3)])
        nl.output_bus("y", [_chain(nl, a[0], 7)])
        assert (nl.gate_count, nl.depth) == (10, 7)

    def test_replicated(self):
        nl = Netlist()
        a = nl.input_bus("a", 1)
        nl.output_bus("y", [_chain(nl, a[0], 4) for _ in range(5)])
        assert (nl.gate_count, nl.depth) == (20, 4)


class TestBlockCosts:
    def test_adder_scales_linearly(self):
        assert _adder_gates(6) == 2 * _adder_gates(3) == 30  # 5 per full adder

    def test_shifter_positive(self):
        nl = Netlist()
        term = build_cem_term(nl, nl.input_bus("r", 3), nl.input_bus("c", 3))
        nl.output_bus("term", term)
        assert nl.gate_count == 24  # two ranks of three 4-gate muxes
        assert nl.depth == 5  # NOT, AND, OR, then AND, OR on the data path
        wired = Netlist()
        build_cem_generator(wired, [wired.input_bus("r", 3)], [2])
        assert wired.gate_count == _adder_gates(6)  # the shift itself is wiring

    def test_comparator_positive(self):
        nl = Netlist()
        nl.output_bus("lt", [build_less_than(nl, nl.input_bus("a", 6), nl.input_bus("b", 6))])
        assert nl.gate_count > 0 and nl.depth > 0

    def test_popcount_grows_with_inputs(self):
        def gates(n):
            nl = Netlist()
            build_popcount(nl, nl.input_bus("v", n), 3)
            return nl.gate_count

        assert gates(7) > gates(3)

    def test_multi_operand_tree(self):
        nl = Netlist()
        buses = [nl.input_bus(f"r{i}", 3) for i in range(5)]
        build_cem_generator(nl, buses, [0] * 5)
        assert nl.gate_count == 5 * _adder_gates(6)


class TestSelectionUnitCost:
    def test_breakdown_has_all_stages(self):
        assert [name for name, _, _ in build_selection_unit().stages] == [
            "unit_decoders",
            "requirement_encoders",
            "cem_generators",
            "minimal_error_selector",
        ]

    def test_total_is_series_composition(self):
        unit = build_selection_unit()
        assert sum(gates for _, gates, _ in unit.stages) == unit.gate_count
        depths = [depth for _, _, depth in unit.stages]
        assert depths == sorted(depths) and depths[-1] == unit.depth

    def test_total_is_modest(self):
        """The paper's efficiency claim: a few thousand 2-input gates."""
        unit = build_selection_unit()
        assert unit.gate_count < 10_000
        assert unit.depth < 120

    def test_scales_with_queue_size(self):
        small, big = build_selection_unit(4), build_selection_unit(16)
        assert big.gate_count > small.gate_count
        s, b = ([gates for _, gates, _ in u.stages] for u in (small, big))
        assert s[0] < b[0] and s[1] < b[1]  # decoders, encoders: per entry
        assert s[2:] == b[2:]  # stages 3-4 do not see the window

    def test_stage_helpers_positive(self):
        nl = Netlist()
        onehot = build_unit_decoder(nl, nl.input_bus("op", 7))
        assert nl.gate_count == 429  # 7 NOTs, 61 7-input minterms, 56 ORs
        assert nl.depth_of(onehot) == 9
        nl = Netlist()
        build_requirement_encoder(nl, nl.input_bus("column", 7))
        assert nl.gate_count == 7 * _adder_gates(4) + 3
        nl = Netlist()
        buses = [nl.input_bus(f"c{i}", 12) for i in range(4)]
        build_minimum_selector(nl, buses)
        assert nl.gate_count > 0
