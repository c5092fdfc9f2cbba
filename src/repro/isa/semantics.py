"""Bit-accurate execution semantics for every opcode.

Integer registers hold 32-bit two's-complement values (stored unsigned);
floating-point registers hold IEEE-754 binary32 values (every FP result is
re-rounded through float32).  Division follows the RISC-V convention:
divide-by-zero yields all-ones / the dividend rather than trapping.

The functions here are pure: the execute stage combines them with the data
memory and store buffer.  The opcode-dependent ones look the opcode up
in a per-opcode table built once at import, so executing an instruction
costs one dict lookup and one handler call instead of a chain of enum
comparisons (an enum member loaded through its class is a slow attribute
load).
"""

from __future__ import annotations

import math
import struct

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode

__all__ = [
    "alu_handler",
    "alu_result",
    "control_outcome",
    "effective_address",
    "store_bytes",
    "load_value",
    "access_size",
    "f32",
]

_U32 = 0xFFFFFFFF
_SIGN = 1 << 31

_U32_WORD = struct.Struct("<I")
_I16 = struct.Struct("<h")
_U16 = struct.Struct("<H")
_I8 = struct.Struct("<b")
_U8 = struct.Struct("<B")
_F32 = struct.Struct("<f")


def f32(value: float) -> float:
    """Round a Python float through IEEE-754 binary32.

    Values beyond the binary32 range overflow to infinity, as the hardware
    would (struct raises instead of rounding, so handle it here).
    """
    try:
        return _F32.unpack(_F32.pack(value))[0]
    except OverflowError:
        return math.copysign(math.inf, value)


def _s32(value: int) -> int:
    """The low 32 bits of ``value`` as a two's-complement integer."""
    return ((value & _U32) ^ _SIGN) - _SIGN


def _sdiv(a: int, b: int) -> int:
    """RISC-V signed division (truncating, div-by-zero -> -1)."""
    if b == 0:
        return -1
    if a == -(1 << 31) and b == -1:  # overflow case wraps
        return a
    return int(a / b) if b else -1


def _srem(a: int, b: int) -> int:
    if b == 0:
        return a
    if a == -(1 << 31) and b == -1:
        return 0
    return a - _sdiv(a, b) * b


def _fdiv(s1: float, s2: float) -> float:
    if s2 == 0.0:
        if s1 == 0.0 or math.isnan(s1):
            return math.nan
        sign = math.copysign(1.0, s1) * math.copysign(1.0, s2)
        return math.copysign(math.inf, sign)
    return f32(s1 / s2)


def _fcvtws(s1: float) -> int:
    clamped = max(-(1 << 31), min((1 << 31) - 1, int(s1) if math.isfinite(s1) else 0))
    return clamped & _U32


def _divu(s1: int, s2: int) -> int:
    a, b = s1 & _U32, s2 & _U32
    return _U32 if b == 0 else (a // b) & _U32


def _remu(s1: int, s2: int) -> int:
    a, b = s1 & _U32, s2 & _U32
    return a if b == 0 else (a % b) & _U32


#: opcode -> ``handler(s1, s2, imm)`` of every non-memory, non-control
#: instruction.  Integer operands/results are unsigned 32-bit ints; FP are
#: floats.
_ALU = {
    # ---- integer ALU ----
    Opcode.ADD: lambda s1, s2, imm: (s1 + s2) & _U32,
    Opcode.ADDI: lambda s1, s2, imm: (s1 + imm) & _U32,
    Opcode.SUB: lambda s1, s2, imm: (s1 - s2) & _U32,
    Opcode.AND: lambda s1, s2, imm: (s1 & s2) & _U32,
    Opcode.ANDI: lambda s1, s2, imm: (s1 & (imm & 0x7FFF)) & _U32,
    Opcode.OR: lambda s1, s2, imm: (s1 | s2) & _U32,
    Opcode.ORI: lambda s1, s2, imm: (s1 | (imm & 0x7FFF)) & _U32,
    Opcode.XOR: lambda s1, s2, imm: (s1 ^ s2) & _U32,
    Opcode.XORI: lambda s1, s2, imm: (s1 ^ (imm & 0x7FFF)) & _U32,
    Opcode.NOR: lambda s1, s2, imm: ~(s1 | s2) & _U32,
    Opcode.SLL: lambda s1, s2, imm: (s1 << (s2 & 31)) & _U32,
    Opcode.SLLI: lambda s1, s2, imm: (s1 << (imm & 31)) & _U32,
    Opcode.SRL: lambda s1, s2, imm: (s1 & _U32) >> (s2 & 31),
    Opcode.SRLI: lambda s1, s2, imm: (s1 & _U32) >> (imm & 31),
    Opcode.SRA: lambda s1, s2, imm: (_s32(s1) >> (s2 & 31)) & _U32,
    Opcode.SRAI: lambda s1, s2, imm: (_s32(s1) >> (imm & 31)) & _U32,
    Opcode.SLT: lambda s1, s2, imm: int(_s32(s1) < _s32(s2)),
    Opcode.SLTI: lambda s1, s2, imm: int(_s32(s1) < imm),
    Opcode.SLTU: lambda s1, s2, imm: int((s1 & _U32) < (s2 & _U32)),
    # the immediate field is stored sign-extended; lui places its 15 raw
    # bits at [29:15]
    Opcode.LUI: lambda s1, s2, imm: ((imm & 0x7FFF) << 15) & _U32,
    # ---- floating-point ----
    Opcode.FADD: lambda s1, s2, imm: f32(s1 + s2),
    Opcode.FSUB: lambda s1, s2, imm: f32(s1 - s2),
    Opcode.FMUL: lambda s1, s2, imm: f32(s1 * s2),
    Opcode.FDIV: lambda s1, s2, imm: _fdiv(s1, s2),
    Opcode.FSQRT: lambda s1, s2, imm: f32(math.sqrt(s1)) if s1 >= 0.0 else math.nan,
    Opcode.FMIN: lambda s1, s2, imm: f32(min(s1, s2)),
    Opcode.FMAX: lambda s1, s2, imm: f32(max(s1, s2)),
    Opcode.FABS: lambda s1, s2, imm: f32(abs(s1)),
    Opcode.FNEG: lambda s1, s2, imm: f32(-s1),
    Opcode.FMOV: lambda s1, s2, imm: f32(s1),
    Opcode.FEQ: lambda s1, s2, imm: int(s1 == s2),
    Opcode.FLT: lambda s1, s2, imm: int(s1 < s2),
    Opcode.FLE: lambda s1, s2, imm: int(s1 <= s2),
    Opcode.FCVTWS: lambda s1, s2, imm: _fcvtws(s1),
    Opcode.FCVTSW: lambda s1, s2, imm: f32(float(_s32(s1))),
    # ---- integer multiply/divide ----
    Opcode.MUL: lambda s1, s2, imm: (_s32(s1) * _s32(s2)) & _U32,
    Opcode.MULH: lambda s1, s2, imm: ((_s32(s1) * _s32(s2)) >> 32) & _U32,
    Opcode.MULHU: lambda s1, s2, imm: (((s1 & _U32) * (s2 & _U32)) >> 32) & _U32,
    Opcode.DIV: lambda s1, s2, imm: _sdiv(_s32(s1), _s32(s2)) & _U32,
    Opcode.DIVU: lambda s1, s2, imm: _divu(s1, s2),
    Opcode.REM: lambda s1, s2, imm: _srem(_s32(s1), _s32(s2)) & _U32,
    Opcode.REMU: lambda s1, s2, imm: _remu(s1, s2),
}

#: jump opcode -> ``handler(pc, imm, s1)`` returning ``(taken, target_pc,
#: link_value)``.
_JUMP = {
    Opcode.JAL: lambda pc, imm, s1: (True, pc + imm, (pc + 1) & _U32),
    Opcode.JALR: lambda pc, imm, s1: (True, (s1 + imm) & _U32, (pc + 1) & _U32),
    Opcode.HALT: lambda pc, imm, s1: (False, pc + 1, None),
}

#: branch opcode -> ``condition(s1, s2)``: is the branch taken?
_BRANCH = {
    Opcode.BEQ: lambda s1, s2: (s1 & _U32) == (s2 & _U32),
    Opcode.BNE: lambda s1, s2: (s1 & _U32) != (s2 & _U32),
    Opcode.BLT: lambda s1, s2: _s32(s1) < _s32(s2),
    Opcode.BGE: lambda s1, s2: _s32(s1) >= _s32(s2),
    Opcode.BLTU: lambda s1, s2: (s1 & _U32) < (s2 & _U32),
    Opcode.BGEU: lambda s1, s2: (s1 & _U32) >= (s2 & _U32),
}

#: access width in bytes of every load/store (any other opcode reads 1).
_ACCESS_SIZE = {
    Opcode.LW: 4, Opcode.SW: 4, Opcode.FLW: 4, Opcode.FSW: 4,
    Opcode.LH: 2, Opcode.LHU: 2, Opcode.SH: 2,
    Opcode.LB: 1, Opcode.LBU: 1, Opcode.SB: 1,
}

#: store opcode -> bytes it writes to memory (little-endian).
_STORE = {
    Opcode.SW: lambda value: _U32_WORD.pack(value & _U32),
    Opcode.SH: lambda value: _U16.pack(value & 0xFFFF),
    Opcode.SB: lambda value: _U8.pack(value & 0xFF),
    Opcode.FSW: lambda value: _F32.pack(f32(value)),
}

#: load opcode -> register value produced from its raw memory bytes.
_LOAD = {
    Opcode.LW: lambda raw: _U32_WORD.unpack(raw)[0],
    Opcode.LH: lambda raw: _I16.unpack(raw)[0] & _U32,
    Opcode.LHU: lambda raw: _U16.unpack(raw)[0],
    Opcode.LB: lambda raw: _I8.unpack(raw)[0] & _U32,
    Opcode.LBU: lambda raw: _U8.unpack(raw)[0],
    Opcode.FLW: lambda raw: _F32.unpack(raw)[0],
}


def alu_handler(opcode: Opcode):
    """The ``handler(s1, s2, imm)`` computing the result of a non-memory,
    non-control ``opcode``, or ``None`` for any other opcode (an
    instruction's ``alu_handler``, bound once per opcode at decode)."""
    return _ALU.get(opcode)


def alu_result(instr: Instruction, s1: int | float, s2: int | float) -> int | float:
    """Result of a non-memory, non-control instruction.

    Integer operands/results are unsigned 32-bit ints; FP are floats.
    """
    handler = _ALU.get(instr.opcode)
    if handler is None:
        raise ValueError(f"alu_result does not handle {instr.mnemonic}")
    return handler(s1, s2, instr.imm)


def control_outcome(
    instr: Instruction, pc: int, s1: int = 0, s2: int = 0
) -> tuple[bool, int, int | None]:
    """Resolve a control instruction.

    Returns ``(taken, target_pc, link_value)``; ``link_value`` is the value
    written to ``rd`` for jumps (the return address ``pc + 1``), else None.
    For a not-taken branch ``target_pc`` is the fall-through ``pc + 1``.
    """
    op = instr.opcode
    condition = _BRANCH.get(op)
    if condition is not None:
        taken = condition(s1, s2)
        return taken, (pc + instr.imm) if taken else (pc + 1), None
    jump = _JUMP.get(op)
    if jump is None:
        raise ValueError(f"control_outcome does not handle {instr.mnemonic}")
    return jump(pc, instr.imm, s1)


def effective_address(instr: Instruction, base: int) -> int:
    """Byte address accessed by a load or store."""
    return (base + instr.imm) & _U32


def access_size(instr: Instruction) -> int:
    """Access width in bytes of a load/store."""
    return _ACCESS_SIZE.get(instr.opcode, 1)


def store_bytes(instr: Instruction, value: int | float) -> bytes:
    """Bytes a store writes to memory (little-endian)."""
    pack = _STORE.get(instr.opcode)
    if pack is None:
        raise ValueError(f"not a store: {instr.mnemonic}")
    return pack(value)


def load_value(instr: Instruction, raw: bytes) -> int | float:
    """Register value produced by a load from its raw memory bytes."""
    unpack = _LOAD.get(instr.opcode)
    if unpack is None:
        raise ValueError(f"not a load: {instr.mnemonic}")
    return unpack(raw)
