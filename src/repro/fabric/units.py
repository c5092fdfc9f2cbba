"""Functional units and the fixed-unit bank.

A :class:`FunctionalUnit` executes one instruction at a time for that
instruction's full latency (units are not internally pipelined — this is
what makes the *number* of configured units matter, which is the quantity
the steering mechanism optimises).  Each unit exposes the ``available``
signal of Fig. 7: asserted when the unit is configured and idle.

A unit does not count its own cycles: the register update unit keeps one
due-cycle map of issued instructions and releases a unit by event when its
instruction completes (or is squashed).  Units publish their idle/busy
**transitions** to registered listeners (the Eq. 1 availability cache):
occupy and a busy release call ``listener.unit_state_changed(unit, idle)``
at the moment the state flips.  This is what makes the availability layer
*incremental* — the cache point-updates one per-type count per event
instead of rescanning every unit whenever anything changed.  The
process-wide **busy epoch** (a counter bumped on the same transitions) is
retained as a cheap external observability hook.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import FabricError
from repro.isa.futypes import FU_TYPES, FUType

__all__ = ["FunctionalUnit", "FfuBank", "busy_epoch"]

_unit_ids = itertools.count()


class _BusyEpoch:
    """Process-wide monotonically increasing busy-state version."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


_BUSY_EPOCH = _BusyEpoch()


def busy_epoch() -> int:
    """The current busy-state version (see module docstring)."""
    return _BUSY_EPOCH.value


@dataclass(slots=True)
class FunctionalUnit:
    """One execution unit, fixed or reconfigurable."""

    fu_type: FUType
    fixed: bool = False
    uid: int = field(default_factory=lambda: next(_unit_ids))
    busy: bool = False
    #: id of the in-flight instruction occupying the unit (for tracing).
    occupant: int | None = None
    #: objects notified on every idle/busy transition via
    #: ``unit_state_changed(unit, idle)`` (the availability caches).
    listeners: list = field(default_factory=list, repr=False, compare=False)

    @property
    def available(self) -> bool:
        """The slot's 'available' output: asserted when the unit is idle."""
        return not self.busy

    def _notify(self, idle: bool) -> None:
        _BUSY_EPOCH.value += 1
        for listener in self.listeners:
            listener.unit_state_changed(self, idle)

    def occupy(self, occupant: int | None = None) -> None:
        """Begin executing an instruction; the unit stays busy until
        :meth:`release`."""
        if self.busy:
            raise FabricError(
                f"{self.fu_type.short_name} unit {self.uid} is busy "
                f"(occupant {self.occupant})"
            )
        self.busy = True
        self.occupant = occupant
        self._notify(False)

    def release(self) -> None:
        """Free the unit: its instruction completed or was squashed."""
        was_busy = self.busy
        self.busy = False
        self.occupant = None
        if was_busy:
            self._notify(True)
        else:
            _BUSY_EPOCH.value += 1  # preserved epoch semantics: always bumps

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

    def units_of_type(self, fu_type: FUType) -> list[FunctionalUnit]:
        return [u for u in self._units if u.fu_type is fu_type]

    def counts(self) -> dict[FUType, int]:
        out: dict[FUType, int] = {}
        for u in self._units:
            out[u.fu_type] = out.get(u.fu_type, 0) + 1
        return out
