"""The complete execution fabric: fixed units + reconfigurable slots.

This is the object the scheduler and the configuration manager share.  It
answers three questions every cycle:

* *what is configured?* — unit counts including the fixed bank (the
  "number of units of each type currently configured" input of Fig. 2);
* *what is available?* — the Eq. 1 availability per type, feeding the
  wake-up array's resource-available lines;
* *which unit executes this instruction?* — allocation of an idle unit of
  the required type.

The fabric also owns every unit's busy state: :meth:`Fabric.issue`
occupies a unit and :meth:`Fabric.release` frees it, and each transition
updates the availability cache's idle counts, its Eq. 1 bus and its
``rfu_flips`` as it flips the unit.  No other code sets ``busy`` on a
configured unit, so the cache never needs a rescan between structure
changes.
"""

from __future__ import annotations

from repro.errors import FabricError
from repro.fabric.availability import AvailabilityCache
from repro.fabric.configuration import FFU_COUNTS
from repro.fabric.slots import RfuSlotArray
from repro.fabric.units import FfuBank, FunctionalUnit
from repro.isa.futypes import FU_BIT, FUType

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
        #: versioned cache of per-type units and the Eq. 1 availability bus.
        self._avail = AvailabilityCache(self.ffus, self.rfus)

    # ------------------------------------------------------------- queries
    def counts_tuple(self) -> tuple[int, ...]:
        """Configured units (fixed + loaded) per type, canonical type order:
        the Fig. 2 'currently configured' input.  Units under
        reconfiguration are *not* counted: they cannot execute anything
        yet.

        Cached by structure version: repeated calls between
        reconfigurations return the same tuple object without allocating.
        The steering policies read it every cycle, so the version compare
        is made here rather than through the cache's query method.
        """
        avail = self._avail
        if avail._structure_seen != self.rfus.structure_version:
            avail._refresh_structure()
        return avail._counts

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

        Read from the availability cache: the same value as evaluating the
        Fig. 7 circuit over :meth:`full_allocation` (the availability
        property tests pin the equivalence), without rebuilding the
        allocation vector on the scheduler's hot path.
        """
        return self._avail.bits()

    def idle_counts(self) -> dict[FUType, int]:
        """Idle units per type (cached; treat as read-only)."""
        return self._avail.idle_counts()

    # ------------------------------------------------------------ mutation
    def issue(self, fu_type: FUType, occupant: int | None = None) -> FunctionalUnit:
        """Occupy an idle unit of ``fu_type`` until :meth:`release` frees it.

        Picks the first idle unit of the type (fixed units first, then
        reconfigurable units in slot order) from the cached per-type
        units, flips it busy and takes it out
        of the availability cache's idle count (clearing its bus bit when
        it was the type's last idle unit).  This runs once per issued
        instruction, and it is the only code that makes a unit busy.
        """
        avail = self._avail
        if avail._structure_seen != self.rfus.structure_version:
            avail._refresh_structure()
        for unit in avail._by_type[fu_type]:
            if not unit.busy:
                unit.busy = True
                unit.occupant = occupant
                if not unit.fixed:
                    avail.rfu_flips += 1
                counts = avail._idle_counts
                idle = counts[fu_type] - 1
                counts[fu_type] = idle
                if not idle:
                    avail._bits &= ~FU_BIT[fu_type]
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
        avail = self._avail
        if not unit.fixed:
            avail.rfu_flips += 1
        fu_type = unit.fu_type
        avail._idle_counts[fu_type] += 1
        avail._bits |= FU_BIT[fu_type]

    def tick(self) -> None:
        """Advance the configuration bus one cycle (units release by event)."""
        self.rfus.tick()

    # ---------------------------------------------------------- statistics
    @property
    def reconfigurations(self) -> int:
        return self.rfus.reconfigurations
