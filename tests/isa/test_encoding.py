"""Encode/decode round-trip tests, including a hypothesis property over
the whole instruction space."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DisassemblerError, EncodingError
from repro.isa.encoding import WORD_BITS, decode, encode, imm_range
from repro.isa.instruction import Instruction, spec_attributes
from repro.isa.opcodes import Format, Opcode, spec_of

_REG = st.integers(0, 31)


def _instruction_strategy():
    def build(opcode, rd, rs1, rs2, imm_frac):
        spec = spec_of(opcode)
        fmt = spec.format
        lo, hi = imm_range(fmt)
        imm = lo + int(imm_frac * (hi - lo)) if hi > lo else 0
        if fmt is Format.R:
            return Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2)
        if fmt is Format.I:
            return Instruction(opcode, rd=rd, rs1=rs1, imm=imm)
        if fmt in (Format.S, Format.B):
            return Instruction(opcode, rs1=rs1, rs2=rs2, imm=imm)
        if fmt is Format.J:
            return Instruction(opcode, rd=rd, imm=imm)
        return Instruction(opcode)

    return st.builds(
        build,
        st.sampled_from(list(Opcode)),
        _REG,
        _REG,
        _REG,
        st.floats(0, 1, allow_nan=False),
    )


class TestRoundTrip:
    @given(_instruction_strategy())
    def test_decode_inverts_encode(self, instr):
        word = encode(instr)
        assert 0 <= word < 2**WORD_BITS
        assert decode(word) == instr

    def test_specific_examples(self):
        cases = [
            Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3),
            Instruction(Opcode.ADDI, rd=31, rs1=30, imm=-16384),
            Instruction(Opcode.ADDI, rd=31, rs1=30, imm=16383),
            Instruction(Opcode.SW, rs1=5, rs2=6, imm=-1),
            Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=-100),
            Instruction(Opcode.JAL, rd=1, imm=-(1 << 19)),
            Instruction(Opcode.HALT),
            Instruction(Opcode.FSW, rs1=2, rs2=3, imm=16383),
        ]
        for instr in cases:
            assert decode(encode(instr)) == instr


class TestEncodeErrors:
    def test_imm_overflow_i(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.ADDI, rd=1, imm=1 << 14))

    def test_imm_underflow_b(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.BEQ, imm=-(1 << 14) - 1))

    def test_imm_overflow_j(self):
        with pytest.raises(EncodingError):
            encode(Instruction(Opcode.JAL, rd=1, imm=1 << 19))


class TestDecodeErrors:
    def test_unknown_opcode(self):
        with pytest.raises(DisassemblerError):
            decode(0x7F << 25)  # opcode 0x7f is unassigned

    def test_out_of_range_word(self):
        with pytest.raises(DisassemblerError):
            decode(1 << 32)
        with pytest.raises(DisassemblerError):
            decode(-1)


def test_opcode_field_position():
    word = encode(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3))
    assert (word >> 25) == int(Opcode.ADD)


@pytest.mark.parametrize("opcode", list(Opcode))
def test_decode_sets_the_spec_derived_attributes(opcode):
    """``decode`` writes the values the cached properties would compute."""
    decoded = decode(encode(Instruction(opcode)))
    built = Instruction(opcode)
    for name in spec_attributes(spec_of(opcode)):
        assert name in decoded.__dict__  # set at decode, not on first read
        assert decoded.__dict__[name] == getattr(built, name), name
