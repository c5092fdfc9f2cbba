"""The complete execution fabric: fixed units + reconfigurable slots.

This is the object the scheduler and the configuration manager share.  It
answers three questions every cycle:

* *what is configured?* — unit counts including the fixed bank (the
  "number of units of each type currently configured" input of Fig. 2);
* *what is available?* — the Eq. 1 availability per type, feeding the
  wake-up array's resource-available lines;
* *which unit executes this instruction?* — allocation of an idle unit of
  the required type.
"""

from __future__ import annotations

from repro.errors import FabricError
from repro.fabric.allocation import AllocationVector
from repro.fabric.availability import AvailabilityCache
from repro.fabric.availability import available as _eq1_available
from repro.fabric.configuration import FFU_COUNTS
from repro.fabric.slots import RfuSlotArray
from repro.fabric.units import FfuBank, FunctionalUnit
from repro.isa.futypes import FU_TYPES, FUType

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
    def counts(self, include_ffus: bool = True) -> dict[FUType, int]:
        """Configured units per type (the Fig. 2 'currently configured' input).

        Units under reconfiguration are *not* counted: they cannot execute
        anything yet.
        """
        if include_ffus:
            by_type = self._avail.units_by_type()
            return {t: len(by_type[t]) for t in FU_TYPES}
        out = {t: 0 for t in FU_TYPES}
        for t, n in self.rfus.counts().items():
            out[t] += n
        return out

    def counts_tuple(self) -> tuple[int, ...]:
        """Configured units (fixed + loaded) per type, canonical type order.

        Cached by structure version: repeated calls between
        reconfigurations return the same tuple object without allocating.
        """
        return self._avail.counts_tuple()

    def units_by_type(self) -> dict[FUType, tuple[FunctionalUnit, ...]]:
        """All configured units grouped per type (cached; treat as read-only)."""
        return self._avail.units_by_type()

    def units_of_type(self, fu_type: FUType) -> list[FunctionalUnit]:
        """All configured units of a type, fixed units first."""
        return list(self._avail.units_of_type(fu_type))

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

    def available(self, fu_type: FUType) -> bool:
        """Eq. 1: is a unit of this type configured *and* idle?

        Read from the cached availability bus — provably the same value
        as evaluating the Fig. 7 circuit over :meth:`full_allocation`
        (the availability property tests pin the equivalence), but without
        rebuilding the allocation vector on the scheduler's hot path.
        """
        return bool(self._avail.bits() & (1 << fu_type.bit_index))

    def availability_bits(self) -> int:
        """The full Eq. 1 bus: bit ``t.bit_index`` set iff ``available(t)``."""
        return self._avail.bits()

    def idle_counts(self) -> dict[FUType, int]:
        """Idle units per type (cached; treat as read-only)."""
        return self._avail.idle_counts()

    def idle_unit(self, fu_type: FUType) -> FunctionalUnit | None:
        """An idle unit of the given type, preferring fixed units."""
        for u in self._avail.units_of_type(fu_type):
            if u.available:
                return u
        return None

    def idle_units(self, fu_type: FUType) -> list[FunctionalUnit]:
        return [u for u in self._avail.units_of_type(fu_type) if u.available]

    def allocation_vector(self) -> AllocationVector:
        """RFU-only Table 2 vector (the loader's bookkeeping structure)."""
        return self.rfus.allocation_vector()

    # ------------------------------------------------------------ mutation
    def issue(self, fu_type: FUType, occupant: int | None = None) -> FunctionalUnit:
        """Occupy an idle unit of ``fu_type`` until it is released."""
        unit = self.idle_unit(fu_type)
        if unit is None:
            raise FabricError(f"no idle {fu_type.short_name} unit")
        unit.occupy(occupant)
        return unit

    def tick(self) -> None:
        """Advance the configuration bus one cycle (units release by event)."""
        self.rfus.tick()

    # ---------------------------------------------------------- statistics
    @property
    def reconfigurations(self) -> int:
        return self.rfus.reconfigurations

    def utilisation(self) -> dict[FUType, tuple[int, int]]:
        """(busy, total) unit counts per type at this instant."""
        out: dict[FUType, tuple[int, int]] = {}
        for t, units in self._avail.units_by_type().items():
            busy = sum(1 for u in units if not u.available)
            out[t] = (busy, len(units))
        return out
