"""The five functional-unit types of the architecture (Table 1 / Table 2).

Each instruction of the ISA is supported by exactly one type (a stated
assumption of the paper).  Each type has a 3-bit resource encoding used in
the resource-allocation vector and a slot cost: the number of contiguous
reconfigurable slots one unit of that type occupies.

Slot costs follow the paper (OCR reconstruction documented in DESIGN.md):
single-slot integer ALUs and load/store units, two-slot integer
multiply/divide units, three-slot floating-point units.
"""

from __future__ import annotations

import enum

__all__ = [
    "FUType",
    "FU_TYPES",
    "NUM_FU_TYPES",
    "FU_BIT",
    "COUNT_FIELD_BITS",
    "COUNT_ONE",
    "unpack_counts",
]


class FUType(enum.IntEnum):
    """Functional-unit type; the integer value is the Table 2 encoding."""

    INT_ALU = 0b001
    INT_MDU = 0b010
    LSU = 0b011
    FP_ALU = 0b100
    FP_MDU = 0b101

    @property
    def encoding(self) -> int:
        """Three-bit resource-type encoding (Table 2)."""
        return int(self)

    @property
    def slot_cost(self) -> int:
        """Number of reconfigurable slots one unit of this type occupies."""
        return _SLOT_COST[self]

    @property
    def bit_index(self) -> int:
        """Position of this type in one-hot requirement vectors (Fig. 2).

        The paper orders the decoder outputs INT_ALU (bit 0) .. FP_MDU
        (bit 4).
        """
        return _BIT_INDEX[self]

    @property
    def short_name(self) -> str:
        return _SHORT[self]


_SLOT_COST = {
    FUType.INT_ALU: 1,
    FUType.INT_MDU: 2,
    FUType.LSU: 1,
    FUType.FP_ALU: 3,
    FUType.FP_MDU: 3,
}

_BIT_INDEX = {
    FUType.INT_ALU: 0,
    FUType.INT_MDU: 1,
    FUType.LSU: 2,
    FUType.FP_ALU: 3,
    FUType.FP_MDU: 4,
}

_SHORT = {
    FUType.INT_ALU: "IALU",
    FUType.INT_MDU: "IMDU",
    FUType.LSU: "LSU",
    FUType.FP_ALU: "FPALU",
    FUType.FP_MDU: "FPMDU",
}

#: All five types in one-hot bit order (the canonical iteration order).
FU_TYPES: tuple[FUType, ...] = (
    FUType.INT_ALU,
    FUType.INT_MDU,
    FUType.LSU,
    FUType.FP_ALU,
    FUType.FP_MDU,
)

NUM_FU_TYPES = len(FU_TYPES)

#: each type's one-hot bit (``1 << t.bit_index``), for the per-cycle code
#: that would otherwise call the ``bit_index`` property per use.
FU_BIT: dict[FUType, int] = {t: 1 << _BIT_INDEX[t] for t in FU_TYPES}

#: bits per type of a packed per-type count: the count of type ``t`` sits
#: in bits ``[COUNT_FIELD_BITS * t.bit_index, ...)`` of one int, so adding
#: or removing one instruction of a type is one integer add.
COUNT_FIELD_BITS = 16
#: each type's unit in a packed per-type count.
COUNT_ONE: dict[FUType, int] = {
    t: 1 << (COUNT_FIELD_BITS * _BIT_INDEX[t]) for t in FU_TYPES
}


def unpack_counts(packed: int) -> tuple[int, ...]:
    """A packed per-type count as a tuple in canonical type order.

    A reference model: the tests read packed demands back with it."""
    field = (1 << COUNT_FIELD_BITS) - 1
    return tuple(
        (packed >> (COUNT_FIELD_BITS * i)) & field for i in range(len(FU_TYPES))
    )
