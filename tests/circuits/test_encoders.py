"""Tests for the netlist's encoder blocks: the one-hot unit decoder
outputs and the population counter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.netlist import Netlist, build_popcount
from repro.circuits.selection_netlist import OPCODE_WIDTH, build_unit_decoder
from repro.errors import CircuitError
from repro.isa.futypes import FU_TYPES
from repro.isa.opcodes import Opcode, spec_of


def _decoder() -> Netlist:
    nl = Netlist()
    nl.output_bus("onehot", build_unit_decoder(nl, nl.input_bus("op", OPCODE_WIDTH)))
    return nl


def _popcount(n: int, out_width: int = 3) -> Netlist:
    nl = Netlist()
    nl.output_bus("count", build_popcount(nl, nl.input_bus("v", n), out_width))
    return nl


class TestOneHot:
    @pytest.mark.parametrize("index", range(5))
    def test_each_position(self, index):
        (t,) = [t for t in FU_TYPES if t.bit_index == index]
        decoded = _decoder().truth_table()["onehot"]
        ops = [op for op in Opcode if spec_of(op).fu_type is t]
        assert ops and all(decoded[op] == 1 << index for op in ops)

    def test_rejects_out_of_range(self):
        with pytest.raises(CircuitError):
            _decoder().evaluate(op=1 << OPCODE_WIDTH)


class TestPopcountTree:
    def test_counts_seven_inputs(self):
        assert _popcount(7).evaluate(v=0b1111111)["count"] == 7
        assert _popcount(7).evaluate(v=0)["count"] == 0
        assert _popcount(7).evaluate(v=0b1010101)["count"] == 4

    @given(st.lists(st.integers(0, 1), min_size=7, max_size=7))
    def test_matches_sum(self, inputs):
        v = sum(bit << i for i, bit in enumerate(inputs))
        assert _popcount(7).evaluate(v=v)["count"] == sum(inputs)

    def test_truncates_to_out_width(self):
        assert _popcount(4, out_width=2).evaluate(v=0b1111)["count"] == 0

    def test_rejects_non_bit(self):
        with pytest.raises(CircuitError):
            _popcount(1).evaluate(v=2)
