"""Bit-manipulation primitives used throughout the circuit and ISA models.

All functions operate on plain Python ints treated as fixed-width unsigned
bit vectors; widths are explicit arguments so the circuit models can stay
faithful to their hardware counterparts.
"""

from __future__ import annotations

__all__ = ["mask", "bits", "sign_extend", "to_signed", "to_unsigned"]


def mask(width: int) -> int:
    """Return a mask of ``width`` low-order one bits (``width`` may be 0)."""
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bits(value: int, high: int, low: int) -> int:
    """Return the bit field ``value[high:low]`` inclusive, right-aligned.

    A reference model: the reference decoder the decode tests check
    :func:`repro.isa.encoding.decode` against reads fields with it."""
    if high < low:
        raise ValueError(f"bit range [{high}:{low}] is empty")
    return (value >> low) & mask(high - low + 1)


def sign_extend(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as two's complement."""
    value &= mask(width)
    sign = 1 << (width - 1)
    return (value ^ sign) - sign


def to_signed(value: int, width: int) -> int:
    """Alias of :func:`sign_extend`; a reference model, as the semantics
    tests state expected results with it."""
    return sign_extend(value, width)


def to_unsigned(value: int, width: int) -> int:
    """Truncate a (possibly negative) integer to ``width`` unsigned bits;
    a reference model, as the semantics tests state expected results with
    it."""
    return value & mask(width)
