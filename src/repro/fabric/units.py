"""Functional units and the fixed-unit bank.

A :class:`FunctionalUnit` executes one instruction at a time for that
instruction's full latency (units are not internally pipelined — this is
what makes the *number* of configured units matter, which is the quantity
the steering mechanism optimises).  Each unit exposes the ``available``
signal of Fig. 7: asserted when the unit is configured and idle.

A unit does not count its own cycles: the register update unit keeps one
due-cycle map of issued instructions and releases a unit by event when its
instruction completes (or is squashed).  A unit does not flip its own busy
state either: the :class:`~repro.fabric.fabric.Fabric` owns both
transitions — :meth:`~repro.fabric.fabric.Fabric.issue` occupies an idle
unit and :meth:`~repro.fabric.fabric.Fabric.release` frees it — and each
point-updates the fabric's idle count and Eq. 1 bus bit of the unit's type
as it flips the unit, once per issued instruction.  This is what makes the
availability *incremental*: one per-type count moves per event instead of
a rescan of every unit whenever anything changed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.isa.futypes import FU_TYPES, FUType

__all__ = ["FunctionalUnit", "FfuBank"]

_unit_ids = itertools.count()


@dataclass(slots=True)
class FunctionalUnit:
    """One execution unit, fixed or reconfigurable."""

    fu_type: FUType
    fixed: bool = False
    uid: int = field(default_factory=lambda: next(_unit_ids))
    #: set by :meth:`Fabric.issue <repro.fabric.fabric.Fabric.issue>`,
    #: cleared by :meth:`Fabric.release <repro.fabric.fabric.Fabric.release>`.
    busy: bool = False
    #: id of the in-flight instruction occupying the unit (for tracing).
    occupant: int | None = None

    @property
    def available(self) -> bool:
        """The slot's 'available' output: asserted when the unit is idle."""
        return not self.busy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.busy else "idle"
        kind = "FFU" if self.fixed else "RFU"
        return f"<{kind} {self.fu_type.short_name}#{self.uid} {state}>"


class FfuBank:
    """The five fixed functional units: one per type, always present."""

    def __init__(self, counts: dict[FUType, int] | None = None) -> None:
        if counts is None:
            counts = {t: 1 for t in FU_TYPES}
        self._units: list[FunctionalUnit] = []
        for t in FU_TYPES:
            for _ in range(counts.get(t, 0)):
                self._units.append(FunctionalUnit(t, fixed=True))

    @property
    def units(self) -> list[FunctionalUnit]:
        return list(self._units)
