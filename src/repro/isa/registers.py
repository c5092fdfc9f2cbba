"""Register-file conventions: 32 integer + 32 floating-point registers.

Integer register ``x0`` is hard-wired to zero (writes are discarded), the
usual RISC convention; the assembler also accepts the ABI aliases ``zero``,
``ra`` (x1) and ``sp`` (x2).
"""

from __future__ import annotations

__all__ = [
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "ZERO_REG",
    "int_reg_name",
    "fp_reg_name",
    "parse_register",
    "REGISTERS",
]

NUM_INT_REGS = 32
NUM_FP_REGS = 32
ZERO_REG = 0

_ALIASES = {"zero": 0, "ra": 1, "sp": 2}

#: canonical register token -> ``(class, index)``: ``x0`` .. ``x31`` and
#: ``f0`` .. ``f31``, the spelling every generator and the disassembler
#: write.  :func:`parse_register` reads any other spelling.
REGISTERS: dict[str, tuple[str, int]] = {
    **{f"x{i}": ("int", i) for i in range(NUM_INT_REGS)},
    **{f"f{i}": ("fp", i) for i in range(NUM_FP_REGS)},
}


def int_reg_name(index: int) -> str:
    """Canonical name of integer register ``index`` (``x0`` .. ``x31``)."""
    if not 0 <= index < NUM_INT_REGS:
        raise ValueError(f"integer register index out of range: {index}")
    return f"x{index}"


def fp_reg_name(index: int) -> str:
    """Canonical name of floating-point register ``index`` (``f0`` .. ``f31``)."""
    if not 0 <= index < NUM_FP_REGS:
        raise ValueError(f"fp register index out of range: {index}")
    return f"f{index}"


def parse_register(token: str) -> tuple[str, int]:
    """Parse a register token into ``("int"|"fp", index)``.

    Accepts ``x<N>``, ``f<N>`` and the integer ABI aliases.
    """
    token = token.strip().lower()
    if token in _ALIASES:
        return "int", _ALIASES[token]
    if len(token) >= 2 and token[0] in "xf" and token[1:].isdigit():
        index = int(token[1:])
        limit = NUM_INT_REGS if token[0] == "x" else NUM_FP_REGS
        if 0 <= index < limit:
            return ("int" if token[0] == "x" else "fp"), index
    raise ValueError(f"not a register: {token!r}")
