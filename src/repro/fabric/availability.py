"""The resource-availability function (Eq. 1) and its circuit (Fig. 7).

For a unit type *t*::

    available(t) = OR over every entry i of the resource-allocation vector
                   of  [ type(i) == type(t) ] AND availability(i)

where the allocation vector covers both the reconfigurable slots and the
fixed units, SPAN continuation entries never match any type encoding (so a
multi-slot unit is considered exactly once, through its head entry), and
``availability(i)`` is the idle signal of the unit at entry *i*.

Besides the bit-faithful :func:`available` reference, this module holds
:class:`AvailabilityCache` — the simulator's fast evaluation of the same
function.  The cache keeps per-type unit lists (rebuilt only when the slot
array's *structure* changes, i.e. a unit is loaded or evicted) and
maintains the 5-bit availability bus and per-type idle counts
**incrementally**: it registers itself as a listener on every configured
unit, and each idle/busy transition point-updates one counter and one bus
bit.  On the scheduler's per-cycle hot path a query is therefore a single
structure-version compare and an attribute read — no rescan of the units,
not even when the busy state moved (which it does nearly every cycle).

Setting the ``REPRO_AVAILABILITY_CROSSCHECK`` environment variable (or
constructing the cache with ``crosscheck=True``) arms a debug mode that
re-derives the bus and the idle counts from a full unit rescan on every
query and raises :class:`FabricError` on any divergence — the incremental
path is pinned to the rescan it replaced.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import FabricError
from repro.fabric.allocation import EMPTY_ENCODING, SPAN_ENCODING
from repro.fabric.units import FunctionalUnit
from repro.isa.futypes import FU_TYPES, FUType
from repro.utils.env import env_flag

__all__ = ["available", "availability_report", "AvailabilityCache"]

#: default for the per-query rescan cross-check (debug mode).
_CROSSCHECK_DEFAULT = env_flag("REPRO_AVAILABILITY_CROSSCHECK")


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
    """Eq. 1 evaluated for every unit type (one Fig. 7 circuit per type)."""
    return {t: available(t, allocation, availability) for t in FU_TYPES}


class AvailabilityCache:
    """Incrementally-maintained cache of the configured units and the
    Eq. 1 bus.

    The cache answers the scheduler's three per-cycle questions — *which
    units exist per type*, *which types have an idle unit* (the 5-bit
    availability bus), and *how many idle units per type* — without
    rescanning anything:

    * the per-type unit tuples are rebuilt only when the slot array's
      ``structure_version`` moves (a load completed or a unit was
      evicted); the rebuild also re-registers the cache as a listener on
      exactly the configured units and re-derives the idle counts once;
    * between structure changes, every unit's idle/busy transition calls
      :meth:`unit_state_changed`, which adjusts one per-type count and one
      bus bit — O(1) per *event* instead of O(units) per *cycle*.

    Unit ordering inside each tuple is fixed units first, then
    reconfigurable units in slot order — the same preference order
    :meth:`Fabric.idle_unit` has always used.

    With ``crosscheck`` armed (constructor argument, or the
    ``REPRO_AVAILABILITY_CROSSCHECK`` environment variable) every query
    re-derives the answers from a full rescan and raises
    :class:`FabricError` on divergence.
    """

    __slots__ = (
        "_ffus",
        "_rfus",
        "_structure_seen",
        "_by_type",
        "_counts",
        "_bits",
        "_idle_counts",
        "_attached",
        "crosscheck",
    )

    def __init__(self, ffus, rfus, crosscheck: bool | None = None) -> None:
        self._ffus = ffus
        self._rfus = rfus
        self._structure_seen = -1
        self._by_type: dict[FUType, tuple[FunctionalUnit, ...]] = {}
        self._counts: tuple[int, ...] = ()
        self._bits = 0
        self._idle_counts: dict[FUType, int] = {}
        self._attached: list[FunctionalUnit] = []
        self.crosscheck = _CROSSCHECK_DEFAULT if crosscheck is None else crosscheck

    # ----------------------------------------------------------- refresh
    def _refresh_structure(self) -> None:
        version = self._rfus.structure_version
        if version == self._structure_seen:
            return
        for u in self._attached:
            try:
                u.listeners.remove(self)
            except ValueError:  # pragma: no cover - defensive
                pass
        by_type: dict[FUType, list[FunctionalUnit]] = {t: [] for t in FU_TYPES}
        for u in self._ffus.units:
            by_type[u.fu_type].append(u)
        for _, u in self._rfus.units():
            by_type[u.fu_type].append(u)
        self._by_type = {t: tuple(us) for t, us in by_type.items()}
        self._counts = tuple(len(self._by_type[t]) for t in FU_TYPES)
        self._attached = [u for us in self._by_type.values() for u in us]
        for u in self._attached:
            u.listeners.append(self)
        self._recount()
        self._structure_seen = version

    def _recount(self) -> None:
        """Full re-derivation of the idle counts and the bus (structure
        changes and the cross-check reference)."""
        bits = 0
        idle_counts: dict[FUType, int] = {}
        for t, units in self._by_type.items():
            idle = 0
            for u in units:
                if not u.busy:
                    idle += 1
            idle_counts[t] = idle
            if idle:
                bits |= 1 << t.bit_index
        self._bits = bits
        self._idle_counts = idle_counts

    # -------------------------------------------------- incremental update
    def unit_state_changed(self, unit: FunctionalUnit, idle: bool) -> None:
        """Listener callback: one unit flipped between idle and busy."""
        t = unit.fu_type
        counts = self._idle_counts
        n = counts[t] + (1 if idle else -1)
        counts[t] = n
        if n:
            self._bits |= 1 << t.bit_index
        else:
            self._bits &= ~(1 << t.bit_index)

    # --------------------------------------------------------- cross-check
    def _crosscheck(self) -> None:
        bits, counts = self._bits, dict(self._idle_counts)
        self._recount()
        if bits != self._bits or counts != self._idle_counts:
            raise FabricError(
                "incremental availability diverged from rescan: "
                f"bus {bits:#x} != {self._bits:#x} or counts {counts} != "
                f"{self._idle_counts}"
            )

    # ----------------------------------------------------------- queries
    def units_by_type(self) -> dict[FUType, tuple[FunctionalUnit, ...]]:
        """Configured units per type (treat as read-only)."""
        # repro: cold-call -- version-guarded structure rebuild: bounded
        # by reconfiguration events, not cycles
        self._refresh_structure()
        return self._by_type

    def units_of_type(self, fu_type: FUType) -> tuple[FunctionalUnit, ...]:
        # repro: cold-call -- version-guarded structure rebuild: bounded
        # by reconfiguration events, not cycles
        self._refresh_structure()
        return self._by_type[fu_type]

    def counts_tuple(self) -> tuple[int, ...]:
        """Configured units per type in canonical type order."""
        # repro: cold-call -- version-guarded structure rebuild: bounded
        # by reconfiguration events, not cycles
        self._refresh_structure()
        return self._counts

    def bits(self) -> int:
        """The Eq. 1 availability bus: bit ``t.bit_index`` set when a unit
        of type ``t`` is configured and idle."""
        # repro: cold-call -- version-guarded structure rebuild: bounded
        # by reconfiguration events, not cycles
        self._refresh_structure()
        if self.crosscheck:
            # repro: cold-call -- opt-in divergence cross-check (debug)
            self._crosscheck()
        return self._bits

    def idle_counts(self) -> dict[FUType, int]:
        """Idle units per type (treat as read-only)."""
        # repro: cold-call -- version-guarded structure rebuild: bounded
        # by reconfiguration events, not cycles
        self._refresh_structure()
        if self.crosscheck:
            # repro: cold-call -- opt-in divergence cross-check (debug)
            self._crosscheck()
        return self._idle_counts
