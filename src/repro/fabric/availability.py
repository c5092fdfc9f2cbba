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
**incrementally**: the fabric's two busy-state transitions
(:meth:`~repro.fabric.fabric.Fabric.issue` and
:meth:`~repro.fabric.fabric.Fabric.release`) each point-update one counter
and one bus bit as they flip a unit.  On the scheduler's per-cycle hot path
a query is therefore a single structure-version compare and an attribute
read — no rescan of the units, not even when the busy state moved (which it
does nearly every cycle).

Setting the ``REPRO_AVAILABILITY_CROSSCHECK`` environment variable (or
constructing the cache with ``crosscheck=True``) arms a debug mode that
re-derives the bus and the idle counts from a full unit rescan on every
query and raises :class:`FabricError` on any divergence — the incremental
path is pinned to the rescan it replaced.  While it is armed the register
update unit evaluates every issue step instead of reusing a request-free
one, so the check runs every cycle.
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
    """Eq. 1 evaluated for every unit type (one Fig. 7 circuit per type).

    A reference model: the tests pin the availability cache's bus to it."""
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
      evicted); the rebuild also re-derives the idle counts once;
    * between structure changes, :meth:`Fabric.issue
      <repro.fabric.fabric.Fabric.issue>` and :meth:`Fabric.release
      <repro.fabric.fabric.Fabric.release>` — the only code that flips a
      unit's busy state — adjust one per-type count and one bus bit as
      they flip it: O(1) per *event* instead of O(units) per *cycle*.  A
      release before the next rebuild may update the counts of the old
      structure; the rebuild recounts them, and a busy unit is never
      evicted, so no transition lands on a unit the counts do not cover;
    * :attr:`rfu_flips` counts the transitions of reconfigurable units,
      so a reader can tell that no RFU's busy state moved (the
      configuration loader keys its blocked-placement memo on it).

    Unit ordering inside each tuple is fixed units first, then
    reconfigurable units in slot order — the preference order in which
    :meth:`Fabric.issue <repro.fabric.fabric.Fabric.issue>` picks an idle
    unit.

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
        "rfu_flips",
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
        #: idle/busy transitions of reconfigurable units so far.
        self.rfu_flips = 0
        self.crosscheck = _CROSSCHECK_DEFAULT if crosscheck is None else crosscheck

    # ----------------------------------------------------------- refresh
    # repro: allow[HOT001] -- measured on at most 2.2% of cycles (random,
    # window 7, checksum): the rebuild runs only when a load or an
    # eviction moved the slot array's structure version
    def _refresh_structure(self) -> None:
        """Rebuild the per-type units if a load or an eviction moved the
        slot array's ``structure_version``.  The per-cycle readers
        (:meth:`Fabric.issue`, :meth:`Fabric.counts_tuple` and the
        register update unit's issue step) compare the version themselves
        and call this only when it moved."""
        version = self._rfus.structure_version
        if version == self._structure_seen:
            return
        by_type: dict[FUType, list[FunctionalUnit]] = {t: [] for t in FU_TYPES}
        for u in self._ffus.units:
            by_type[u.fu_type].append(u)
        for _, u in self._rfus.units():
            by_type[u.fu_type].append(u)
        self._by_type = {t: tuple(us) for t, us in by_type.items()}
        self._counts = tuple(len(self._by_type[t]) for t in FU_TYPES)
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

    # --------------------------------------------------------- cross-check
    def _crosscheck(self) -> None:
        """A reference model: re-derive the bus and the idle counts from a
        rescan and raise :class:`FabricError` if the incremental ones
        differ."""
        bits, counts = self._bits, dict(self._idle_counts)
        self._recount()
        if bits != self._bits or counts != self._idle_counts:
            raise FabricError(
                "incremental availability diverged from rescan: "
                f"bus {bits:#x} != {self._bits:#x} or counts {counts} != "
                f"{self._idle_counts}"
            )

    # ----------------------------------------------------------- queries
    def bits(self) -> int:
        """The Eq. 1 availability bus: bit ``t.bit_index`` set when a unit
        of type ``t`` is configured and idle."""
        self._refresh_structure()
        if self.crosscheck:
            self._crosscheck()
        return self._bits

    def idle_counts(self) -> dict[FUType, int]:
        """Idle units per type (treat as read-only)."""
        self._refresh_structure()
        if self.crosscheck:
            self._crosscheck()
        return self._idle_counts
