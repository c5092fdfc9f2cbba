"""The complete execution fabric: fixed units + reconfigurable slots.

This is the object the scheduler and the configuration manager share.  It
answers three questions every cycle:

* *what is configured?* — unit counts including the fixed bank (the
  "number of units of each type currently configured" input of Fig. 2);
* *what is available?* — the Eq. 1 availability per type, feeding the
  wake-up array's resource-available lines;
* *which unit executes this instruction?* — allocation of an idle unit of
  the required type.

The fabric is the one owner of its per-type unit state: the units of
each type, the configured counts, the reconfigurable units loaded or in
flight, the idle counts, the Eq. 1 bus and ``rfu_flips``.  Two changes
move the structure, and both go through the fabric, which re-indexes
that state when they happen: :meth:`Fabric.begin_reconfigure` (a load
starts and evicts the idle units in its range) and :meth:`Fabric.tick`
(the load completes).  Between them the busy state moves, and only
through :meth:`Fabric.issue` and :meth:`Fabric.release`, each of which
updates one idle count, one bus bit and ``rfu_flips`` as it flips the
unit.  So no reader compares a version or rescans a unit.

Setting the ``REPRO_AVAILABILITY_CROSSCHECK`` environment variable
(:data:`repro.utils.env.CROSSCHECK`) arms a debug mode in which every
availability query re-derives the whole per-type state from a rescan of
the units and raises :class:`FabricError` on any divergence.  While it
is armed the register update unit evaluates every issue step instead of
reusing a request-free one, so the check runs every cycle, and also pins
the packed wake-up kernel to its row-loop reference
(:meth:`~repro.sched.wakeup.WakeupArray.requests_reference`).
"""

from __future__ import annotations

from repro.errors import FabricError
from repro.fabric.configuration import FFU_COUNTS
from repro.fabric.slots import RfuSlotArray
from repro.fabric.units import FfuBank, FunctionalUnit
from repro.isa.futypes import FU_BIT, FU_TYPES, FUType
from repro.utils import env

__all__ = ["Fabric"]


class Fabric:
    """Fixed functional units plus the reconfigurable slot array."""

    def __init__(
        self,
        n_slots: int = 8,
        reconfig_latency: int = 16,
        ffu_counts: dict[FUType, int] | None = None,
        reconfig_mode: str = "module",
    ) -> None:
        self.ffus = FfuBank(FFU_COUNTS if ffu_counts is None else ffu_counts)
        self.rfus = RfuSlotArray(
            n_slots=n_slots,
            reconfig_latency=reconfig_latency,
            reconfig_mode=reconfig_mode,
        )
        #: idle/busy transitions of reconfigurable units so far: a reader
        #: can tell that no RFU's busy state moved (the configuration
        #: loader keys its blocked-placement memo on it).
        self.rfu_flips = 0
        #: re-derive the per-type state on every availability query.
        self.crosscheck = env.CROSSCHECK
        self._index()

    # --------------------------------------------------------- per-type state
    def _index(self) -> None:
        """Rebuild the per-type state from the units.

        Runs when the structure changes (:meth:`begin_reconfigure`, and
        :meth:`tick` when a load completes) and as the cross-check's
        rescan.  Each type's units are ordered fixed units first, then
        reconfigurable units in slot order: the order in which
        :meth:`issue` picks an idle unit.
        """
        by_type: dict[FUType, list[FunctionalUnit]] = {}
        rfu_have: dict[FUType, int] = {}
        for t in FU_TYPES:
            by_type[t] = []
            rfu_have[t] = 0
        for unit in self.ffus.units:
            by_type[unit.fu_type].append(unit)
        for slot in self.rfus.slots:
            unit = slot.unit
            if unit is not None:
                by_type[unit.fu_type].append(unit)
                rfu_have[unit.fu_type] += 1
            elif slot.pending_type is not None:
                rfu_have[slot.pending_type] += 1
        units_of: dict[FUType, tuple[FunctionalUnit, ...]] = {}
        counts: list[int] = []
        idle_counts: dict[FUType, int] = {}
        bits = 0
        for t in FU_TYPES:
            units = tuple(by_type[t])
            units_of[t] = units
            counts.append(len(units))
            idle = 0
            for unit in units:
                if not unit.busy:
                    idle += 1
            idle_counts[t] = idle
            if idle:
                bits |= FU_BIT[t]
        self._by_type = units_of
        self._counts = tuple(counts)
        #: reconfigurable units per type, loaded or loading: what the
        #: configuration loader already has toward its target.
        self.rfu_have = rfu_have
        self._idle_counts = idle_counts
        self._bits = bits

    def _crosscheck(self) -> None:
        """A reference model: re-derive the per-type state from a rescan
        of the units and raise :class:`FabricError` if the kept state
        differs (a busy-state event or a structure change was missed)."""
        kept = (
            self._bits, self._idle_counts, self._counts, self.rfu_have,
            self._by_type,
        )
        self._index()
        rescan = (
            self._bits, self._idle_counts, self._counts, self.rfu_have,
            self._by_type,
        )
        if kept != rescan:
            raise FabricError(
                "fabric state diverged from a rescan (bus, idle, configured, "
                f"RFUs loaded or loading): kept {kept[:4]}, rescan {rescan[:4]}"
            )

    # ------------------------------------------------------------- queries
    def counts_tuple(self) -> tuple[int, ...]:
        """Configured units (fixed + loaded) per type, canonical type order:
        the Fig. 2 'currently configured' input.  Units under
        reconfiguration are *not* counted: they cannot execute anything
        yet.  The same tuple object until the structure changes."""
        return self._counts

    def full_allocation(self) -> tuple[list[int], list[bool]]:
        """Allocation + availability vectors over RFU slots then FFUs.

        This is the exact input pair of the Fig. 7 availability circuit.
        """
        rfu_vec = self.rfus.allocation_vector()
        allocation = list(rfu_vec.entries)
        availability: list[bool] = []
        for i in range(self.rfus.n_slots):
            head = self.rfus.head_of(i)
            unit = self.rfus.slots[head].unit if head is not None else None
            availability.append(bool(unit and unit.available))
        for u in self.ffus.units:
            allocation.append(u.fu_type.encoding)
            availability.append(u.available)
        return allocation, availability

    def availability_bits(self) -> int:
        """The full Eq. 1 bus: bit ``t.bit_index`` set iff a unit of type
        ``t`` is configured *and* idle.

        The same value as evaluating the Fig. 7 circuit over
        :meth:`full_allocation` (the availability property tests pin the
        equivalence), without rebuilding the allocation vector on the
        scheduler's hot path.
        """
        if self.crosscheck:
            self._crosscheck()
        return self._bits

    def idle_counts(self) -> dict[FUType, int]:
        """Idle units per type (treat as read-only)."""
        if self.crosscheck:
            self._crosscheck()
        return self._idle_counts

    # ------------------------------------------------------------ mutation
    def issue(self, fu_type: FUType, occupant: int | None = None) -> FunctionalUnit:
        """Occupy an idle unit of ``fu_type`` until :meth:`release` frees it.

        Picks the first idle unit of the type (fixed units first, then
        reconfigurable units in slot order), flips it busy and takes it
        out of the type's idle count (clearing its bus bit when it was
        the type's last idle unit).  This runs once per issued
        instruction, and it is the only code that makes a unit busy.
        """
        for unit in self._by_type[fu_type]:
            if not unit.busy:
                unit.busy = True
                unit.occupant = occupant
                if not unit.fixed:
                    self.rfu_flips += 1
                counts = self._idle_counts
                idle = counts[fu_type] - 1
                counts[fu_type] = idle
                if not idle:
                    self._bits &= ~FU_BIT[fu_type]
                return unit
        raise FabricError(f"no idle {fu_type.short_name} unit")

    def release(self, unit: FunctionalUnit) -> None:
        """Free a unit :meth:`issue` occupied: its instruction completed or
        was squashed.  The unit's type counts one more idle unit and its
        bus bit is set.  This runs once per completed or squashed
        instruction, and it is the only code that makes a unit idle."""
        if not unit.busy:
            raise FabricError(
                f"{unit.fu_type.short_name} unit {unit.uid} is not busy"
            )
        unit.busy = False
        unit.occupant = None
        if not unit.fixed:
            self.rfu_flips += 1
        fu_type = unit.fu_type
        self._idle_counts[fu_type] += 1
        self._bits |= FU_BIT[fu_type]

    def begin_reconfigure(self, head: int, fu_type: FUType) -> int:
        """Start loading a ``fu_type`` unit headed at ``head``, evicting the
        idle units in its range (:meth:`RfuSlotArray.begin_reconfigure
        <repro.fabric.slots.RfuSlotArray.begin_reconfigure>`), and
        re-index: the evicted units leave the per-type state and the load
        counts in :attr:`rfu_have`.  Returns the cycles until the unit is
        usable."""
        latency = self.rfus.begin_reconfigure(head, fu_type)
        self._index()
        return latency

    def tick(self) -> None:
        """Advance the configuration bus one cycle; when the load in flight
        completes, re-index so its unit joins the per-type state.  Units
        release by event, so a cycle with no load in flight needs no
        tick."""
        if self.rfus.tick():
            self._index()

    # ---------------------------------------------------------- statistics
    @property
    def reconfigurations(self) -> int:
        return self.rfus.reconfigurations
