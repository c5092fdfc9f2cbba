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

import weakref
from _weakref import _remove_dead_weakref

from repro.errors import DisassemblerError, EncodingError
from repro.isa.instruction import Instruction, spec_attributes
from repro.isa.opcodes import ALL_SPECS, Format, Opcode, spec_of
from repro.isa.semantics import alu_handler

__all__ = ["encode", "decode", "WORD_BITS", "imm_range"]

WORD_BITS = 32
_WORD_MAX = (1 << WORD_BITS) - 1

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


class _Held(weakref.ref):
    """A weak reference to a decoded instruction that names its word."""

    __slots__ = ("word",)


#: word -> weak reference to the one live instruction :func:`decode` built
#: for it.  An entry goes when its instruction does (:func:`_forget`).
#: There is no lock: two threads that decode one word at once may each
#: build an instruction, and the table keeps the later.  Both decode the
#: word, and every entry still goes with its instruction, so a race costs
#: a duplicate, never a wrong or a stale entry.
_LIVE: dict[int, _Held] = {}

_new = object.__new__


def _forget(held: _Held, live: dict = _LIVE,
            remove=_remove_dead_weakref) -> None:
    # the table and the helper are bound as defaults: a callback may run
    # while the interpreter tears the module's globals down.  One C call
    # deletes the entry only while it holds a dead reference, so a word
    # decoded again after its instruction died keeps its newer, live one.
    remove(live, held.word)


def imm_range(fmt: Format) -> tuple[int, int]:
    """Inclusive immediate range representable by ``fmt``."""
    if fmt is _J:
        return _IMM20_MIN, _IMM20_MAX
    if fmt in (_I, _S, _B):
        return _IMM15_MIN, _IMM15_MAX
    return 0, 0


#: opcode -> (format, immediate range, mnemonic): all :func:`encode` reads
#: of the spec.
_ENCODE_TABLE = {
    Opcode(spec.number): (spec.format, *imm_range(spec.format), spec.mnemonic)
    for spec in ALL_SPECS
}

# The fields are cut and sign-extended with inline shifts and masks:
# building a program encodes and decodes each of its words, and a
# function call per field would be most of that cost.


def encode(instr: Instruction) -> int:
    """Encode an :class:`Instruction` into its 32-bit binary word."""
    opcode = instr.opcode
    fmt, lo, hi, mnemonic = _ENCODE_TABLE[opcode]
    imm = instr.imm
    if not lo <= imm <= hi:
        raise EncodingError(
            f"immediate {imm} out of range [{lo}, {hi}] for {mnemonic}"
        )
    if fmt is _R:
        return opcode << 25 | instr.rd << 20 | instr.rs1 << 15 | instr.rs2 << 10
    if fmt is _I:
        return opcode << 25 | instr.rd << 20 | instr.rs1 << 15 | imm & 0x7FFF
    if fmt is _S or fmt is _B:
        imm &= 0x7FFF
        return (opcode << 25 | (imm >> 10) << 20 | instr.rs1 << 15
                | instr.rs2 << 10 | imm & 0x3FF)
    if fmt is _J:
        return opcode << 25 | instr.rd << 20 | imm & 0xFFFFF
    return opcode << 25


def decode(word: int) -> Instruction:
    """Decode a 32-bit binary word into an :class:`Instruction`.

    Every program decodes its words (:attr:`~repro.isa.program.Program.
    decoded`), and most words recur across programs: the sweeps build
    hundreds of programs from a few dozen opcodes and a few registers.  So
    a word decodes to one instruction for as long as anything holds it,
    and every program holding the word shares that instruction with its
    warmed caches.  :data:`_LIVE` holds each instruction weakly, so the
    table keeps nothing that no live program holds.  A refused word raises
    :class:`~repro.errors.DisassemblerError` and is never stored.

    A word no live program holds is built in one ``__dict__`` fill,
    without the dataclass ``__init__``: its fields are cut from 5-bit and
    immediate slices, so they are in range by construction.
    """
    held = _LIVE.get(word)
    if held is not None:
        instr = held()
        if instr is not None:
            return instr
    if word < 0 or word > _WORD_MAX:
        raise DisassemblerError(f"not a 32-bit word: {word:#x}")
    entry = _DECODE_TABLE.get(word >> 25)
    if entry is None:
        raise DisassemblerError(
            f"unknown opcode {word >> 25:#04x} in word {word:#010x}"
        )
    opcode, fmt, attributes = entry

    if fmt is _R:
        rd, rs1, rs2, imm = word >> 20 & 31, word >> 15 & 31, word >> 10 & 31, 0
    elif fmt is _I:
        rd, rs1, rs2 = word >> 20 & 31, word >> 15 & 31, 0
        imm = (word & 0x7FFF ^ 0x4000) - 0x4000
    elif fmt is _S or fmt is _B:
        rd, rs1, rs2 = 0, word >> 15 & 31, word >> 10 & 31
        imm = (word >> 20 & 31) << 10 | word & 0x3FF
        imm = (imm ^ 0x4000) - 0x4000
    elif fmt is _J:
        rd, rs1, rs2 = word >> 20 & 31, 0, 0
        imm = (word & 0xFFFFF ^ 0x80000) - 0x80000
    else:
        rd = rs1 = rs2 = imm = 0
    instr = _new(Instruction)
    # the fields, then the spec attributes, in the order __init__ wrote
    # them; frozen dataclasses allow writes through the instance __dict__
    instr.__dict__.update({
        "opcode": opcode, "rd": rd, "rs1": rs1, "rs2": rs2, "imm": imm,
        **attributes,
    })
    held = _Held(instr, _forget)
    held.word = word
    _LIVE[word] = held
    return instr
