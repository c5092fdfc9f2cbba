"""The resource-availability function (Eq. 1) and its circuit (Fig. 7).

For a unit type *t*::

    available(t) = OR over every entry i of the resource-allocation vector
                   of  [ type(i) == type(t) ] AND availability(i)

where the allocation vector covers both the reconfigurable slots and the
fixed units, SPAN continuation entries never match any type encoding (so a
multi-slot unit is considered exactly once, through its head entry), and
``availability(i)`` is the idle signal of the unit at entry *i*.

This module is the bit-faithful reference: :func:`available` and
:func:`availability_report`.  The simulator reads the same bus from
:class:`~repro.fabric.fabric.Fabric`, which keeps it as its units are
issued, released, loaded and evicted; the availability tests pin the
fabric's bus to this circuit over the Fig. 7 input vectors.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import FabricError
from repro.fabric.allocation import EMPTY_ENCODING, SPAN_ENCODING
from repro.isa.futypes import FU_TYPES, FUType

__all__ = ["available", "availability_report"]


def available(
    fu_type: FUType,
    allocation: Sequence[int],
    availability: Sequence[bool],
) -> bool:
    """Evaluate Eq. 1 for one unit type.

    ``allocation`` holds the 3-bit entry of every slot/FFU position and
    ``availability`` the corresponding idle signals.  The two sequences
    must be the same length.
    """
    if len(allocation) != len(availability):
        raise FabricError(
            f"allocation ({len(allocation)}) and availability "
            f"({len(availability)}) vectors differ in length"
        )
    target = fu_type.encoding
    result = False
    for entry, avail in zip(allocation, availability):
        if entry in (EMPTY_ENCODING, SPAN_ENCODING):
            continue  # EMPTY matches nothing; SPAN is the 'count once' rule
        # bitwise equality of the two 3-bit encodings (the Fig. 7 XNOR/AND
        # product term), ANDed with the slot's availability signal
        result = result or (entry == target and avail)
    return result


def availability_report(
    allocation: Sequence[int], availability: Sequence[bool]
) -> dict[FUType, bool]:
    """Eq. 1 evaluated for every unit type (one Fig. 7 circuit per type).

    A reference model: the tests pin the fabric's bus to it."""
    return {t: available(t, allocation, availability) for t in FU_TYPES}
