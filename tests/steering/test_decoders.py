"""Tests for the unit decoders (Fig. 2 stage 1), gate level."""

import pytest

from repro.circuits.netlist import Netlist
from repro.circuits.selection_netlist import OPCODE_WIDTH, build_unit_decoder
from repro.isa.assembler import assemble
from repro.isa.encoding import encode
from repro.isa.futypes import FUType
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, spec_of


@pytest.fixture(scope="module")
def decoded() -> list[int]:
    """The one-hot output for every 7-bit opcode number."""
    nl = Netlist()
    nl.output_bus("onehot", build_unit_decoder(nl, nl.input_bus("op", OPCODE_WIDTH)))
    return nl.truth_table()["onehot"]


class TestDecodeInstruction:
    def test_output_is_one_hot(self, decoded):
        for op in Opcode:
            assert bin(decoded[op]).count("1") == 1

    def test_every_opcode_decodes_to_its_spec_type(self, decoded):
        defined = {int(op) for op in Opcode}
        assert len(defined) == 61
        for number, onehot in enumerate(decoded):
            if number in defined:
                assert onehot == 1 << spec_of(number).fu_type.bit_index, number
            else:
                assert onehot == 0, number  # 0 marks an empty queue entry

    @pytest.mark.parametrize(
        "mnemonic,expected_bit",
        [("add", 0), ("mul", 1), ("lw", 2), ("fadd", 3), ("fmul", 4)],
    )
    def test_bit_positions_match_fig2(self, decoded, mnemonic, expected_bit):
        instr = assemble({
            "add": "add x1, x2, x3",
            "mul": "mul x1, x2, x3",
            "lw": "lw x1, 0(x2)",
            "fadd": "fadd f1, f2, f3",
            "fmul": "fmul f1, f2, f3",
        }[mnemonic] + "\n")[0]
        assert decoded[instr.opcode] == 1 << expected_bit

    def test_branches_decode_to_int_alu(self, decoded):
        assert decoded[Opcode.BEQ] == 1 << FUType.INT_ALU.bit_index


class TestDecodeWord:
    def test_legacy_binary_path(self, decoded):
        """The decoder reads the opcode field of a raw machine word, as
        the hardware pre-decoder would."""
        instr = Instruction(Opcode.FDIV, rd=1, rs1=2, rs2=3)
        assert decoded[encode(instr) >> 25] == 1 << FUType.FP_MDU.bit_index
