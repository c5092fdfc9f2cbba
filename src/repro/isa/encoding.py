"""32-bit binary instruction encoding and decoding.

Layout (bit 31 = MSB):

====== ============ ============ ============ =============
format [31:25]      [24:20]      [19:15]      [14:0]
====== ============ ============ ============ =============
R      opcode       rd           rs1          rs2 [14:10], 0
I      opcode       rd           rs1          imm15 (signed)
S/B    opcode       imm[14:10]   rs1          rs2 [14:10], imm[9:0]
J      opcode       rd           imm20 [19:0] (signed)
N      opcode       0            0            0
====== ============ ============ ============ =============

Branch and jump immediates are PC-relative in *instruction words*.
Round-tripping ``decode(encode(i)) == i`` holds for every legal instruction
and is property-tested.
"""

from __future__ import annotations

from repro.errors import DisassemblerError, EncodingError
from repro.isa.instruction import Instruction, spec_attributes
from repro.isa.opcodes import Format, Opcode, spec_of
from repro.isa.semantics import alu_handler
from repro.utils.bitops import bits, mask, sign_extend, to_unsigned

__all__ = ["encode", "decode", "WORD_BITS", "imm_range"]

WORD_BITS = 32

_IMM15_MIN, _IMM15_MAX = -(1 << 14), (1 << 14) - 1
_IMM20_MIN, _IMM20_MAX = -(1 << 19), (1 << 19) - 1

#: the formats as module constants: :func:`decode` sits on the steering
#: decoders' path for raw words, and a member loaded through its enum
#: class is a slow attribute load.
_R, _I, _S, _B, _J, _N = Format.R, Format.I, Format.S, Format.B, Format.J, Format.N


#: opcode number -> (opcode, format, spec-derived attributes and the ALU
#: handler).  :func:`decode` writes the attributes into each instruction it
#: builds, so the simulator's first read of each is a plain instance
#: attribute rather than a ``cached_property`` evaluation, and the execute
#: stage calls an ALU instruction's handler without a per-opcode lookup.
#: They are computed from the spec, not read off probe instructions: a
#: probe's cached properties would grow the key table that every
#: ``Instruction``'s instance dict shares before any program is assembled,
#: and each instruction built afterwards would carry the larger dict
#: (encoding programs for result-cache keys measured ~12% slower that way).
_DECODE_TABLE = {
    int(op): (
        op,
        spec_of(op).format,
        {**spec_attributes(spec_of(op)), "alu_handler": alu_handler(op)},
    )
    for op in Opcode
}


def imm_range(fmt: Format) -> tuple[int, int]:
    """Inclusive immediate range representable by ``fmt``."""
    if fmt is _J:
        return _IMM20_MIN, _IMM20_MAX
    if fmt in (_I, _S, _B):
        return _IMM15_MIN, _IMM15_MAX
    return 0, 0


def encode(instr: Instruction) -> int:
    """Encode an :class:`Instruction` into its 32-bit binary word."""
    spec = spec_of(instr.opcode)
    fmt = spec.format
    word = int(instr.opcode) << 25

    lo, hi = imm_range(fmt)
    if not lo <= instr.imm <= hi:
        raise EncodingError(
            f"immediate {instr.imm} out of range [{lo}, {hi}] for {spec.mnemonic}"
        )

    if fmt is _R:
        word |= instr.rd << 20 | instr.rs1 << 15 | instr.rs2 << 10
    elif fmt is _I:
        word |= instr.rd << 20 | instr.rs1 << 15 | to_unsigned(instr.imm, 15)
    elif fmt in (_S, _B):
        imm = to_unsigned(instr.imm, 15)
        word |= (
            bits(imm, 14, 10) << 20
            | instr.rs1 << 15
            | instr.rs2 << 10
            | bits(imm, 9, 0)
        )
    elif fmt is _J:
        word |= instr.rd << 20 | to_unsigned(instr.imm, 20)
    elif fmt is _N:
        pass
    else:  # pragma: no cover - exhaustive over Format
        raise EncodingError(f"unhandled format {fmt}")
    return word


def decode(word: int) -> Instruction:
    """Decode a 32-bit binary word into an :class:`Instruction`."""
    if word < 0 or word > mask(WORD_BITS):
        raise DisassemblerError(f"not a 32-bit word: {word:#x}")
    opnum = bits(word, 31, 25)
    entry = _DECODE_TABLE.get(opnum)
    if entry is None:
        raise DisassemblerError(f"unknown opcode {opnum:#04x} in word {word:#010x}")
    opcode, fmt, attributes = entry

    if fmt is _R:
        instr = Instruction(
            opcode, rd=bits(word, 24, 20), rs1=bits(word, 19, 15), rs2=bits(word, 14, 10)
        )
    elif fmt is _I:
        instr = Instruction(
            opcode,
            rd=bits(word, 24, 20),
            rs1=bits(word, 19, 15),
            imm=sign_extend(bits(word, 14, 0), 15),
        )
    elif fmt in (_S, _B):
        imm = (bits(word, 24, 20) << 10) | bits(word, 9, 0)
        instr = Instruction(
            opcode,
            rs1=bits(word, 19, 15),
            rs2=bits(word, 14, 10),
            imm=sign_extend(imm, 15),
        )
    elif fmt is _J:
        instr = Instruction(
            opcode, rd=bits(word, 24, 20), imm=sign_extend(bits(word, 19, 0), 20)
        )
    else:
        instr = Instruction(opcode)
    # frozen dataclasses allow writes through the instance __dict__, which
    # is where cached_property would store the same values
    instr.__dict__.update(attributes)
    return instr
