"""The reconfigurable slot array and the partial-reconfiguration mechanism.

Eight slots hold functional units; a unit occupies ``slot_cost`` contiguous
slots with its head in the lowest-indexed one.  Slots are reloaded through a
single configuration bus (the Fig. 1 "Configuration Bus"; real devices
serialise partial reconfiguration through one configuration port), so one
unit reconfigures at a time and loading a unit occupies the bus for
``reconfig_latency * slot_cost`` cycles.

Rules enforced here (the paper's §3.2):

* a slot whose unit is executing a multi-cycle instruction cannot be
  reconfigured until the instruction retires;
* reconfiguring over an idle unit evicts it (all of its slots empty);
* a unit under reconfiguration is not part of the active configuration —
  it appears in no counts and provides no availability until loading
  completes.

Two reconfiguration *flows* are modelled, after the paper's reference [8]
(Xilinx XAPP290, "Two Flows for Partial Reconfiguration: Module Based or
Difference Based"):

* ``"module"`` (default) — every load writes the target region's full
  bitstream: cost = ``reconfig_latency x slot_cost``;
* ``"difference"`` — only the frames that differ are written; replacing a
  unit with one of the *same* type is free-ish (one cycle), related units
  (same integer/floating family) cost half, unrelated units full price.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FabricError
from repro.fabric.allocation import AllocationVector
from repro.fabric.units import FunctionalUnit
from repro.isa.futypes import FUType

__all__ = ["Slot", "RfuSlotArray"]

#: the integer-side unit family for difference-based cost estimation.
_INT_FAMILY = frozenset({FUType.INT_ALU, FUType.INT_MDU, FUType.LSU})


@dataclass(slots=True)
class Slot:
    """State of one reconfigurable slot."""

    index: int
    #: the unit headed here (None for empty, span and reconfiguring slots).
    unit: FunctionalUnit | None = None
    #: head slot index if this slot is a continuation of a multi-slot unit.
    span_of: int | None = None
    #: type being loaded into this slot group (head slot only).
    pending_type: FUType | None = None
    #: head slot of an in-progress reconfiguration covering this slot.
    pending_span_of: int | None = None

    @property
    def is_empty(self) -> bool:
        return (
            self.unit is None
            and self.span_of is None
            and self.pending_type is None
            and self.pending_span_of is None
        )

    @property
    def is_reconfiguring(self) -> bool:
        return self.pending_type is not None or self.pending_span_of is not None


class RfuSlotArray:
    """The array of reconfigurable slots plus the configuration bus."""

    RECONFIG_MODES = ("module", "difference")

    def __init__(
        self,
        n_slots: int = 8,
        reconfig_latency: int = 16,
        reconfig_mode: str = "module",
    ) -> None:
        if n_slots <= 0:
            raise FabricError(f"slot count must be positive, got {n_slots}")
        if reconfig_latency <= 0:
            raise FabricError(f"reconfig latency must be positive, got {reconfig_latency}")
        if reconfig_mode not in self.RECONFIG_MODES:
            raise FabricError(
                f"reconfig mode must be one of {self.RECONFIG_MODES}, got {reconfig_mode!r}"
            )
        self.n_slots = n_slots
        self.reconfig_latency = reconfig_latency
        self.reconfig_mode = reconfig_mode
        self.slots: list[Slot] = [Slot(i) for i in range(n_slots)]
        self._bus_remaining = 0
        self._bus_target: int | None = None  # head slot being loaded
        #: total reconfigurations performed (for statistics).
        self.reconfigurations = 0
        #: total cycles the bus has been busy (for statistics).
        self.bus_busy_cycles = 0
        #: bumped whenever the set of configured units changes (a unit is
        #: loaded or evicted): a memo key for what is derived from the
        #: configured units (the loader's memos, the processor's
        #: configured-unit interval).
        self.structure_version = 0

    # ------------------------------------------------------------- queries
    @property
    def bus_free(self) -> bool:
        """True when the configuration bus can accept a new load."""
        return self._bus_remaining == 0

    def head_of(self, index: int) -> int | None:
        """Head slot index of the unit occupying ``index``, if any."""
        slot = self.slots[index]
        if slot.unit is not None:
            return index
        return slot.span_of

    def units(self) -> list[tuple[int, FunctionalUnit]]:
        """``(head_slot, unit)`` for every configured unit."""
        out: list[tuple[int, FunctionalUnit]] = []
        for s in self.slots:
            if s.unit is not None:
                out.append((s.index, s.unit))
        return out

    def allocation_vector(self) -> AllocationVector:
        """The Table 2 resource-allocation vector of the *active* contents."""
        placements = {i: u.fu_type for i, u in self.units()}
        return AllocationVector.from_units(self.n_slots, placements)

    def slot_busy(self, index: int) -> bool:
        """True if the slot belongs to a unit that is executing."""
        head = self.head_of(index)
        if head is None:
            return False
        unit = self.slots[head].unit
        return unit is not None and not unit.available

    def range_reconfigurable(self, head: int, fu_type: FUType) -> bool:
        """Can a ``fu_type`` unit be loaded with its head at ``head`` now?

        Requires the bus to be free and every covered slot to be idle
        (empty, or holding an idle unit that would be evicted) and not
        already under reconfiguration.
        """
        cost = fu_type.slot_cost
        if head < 0 or head + cost > self.n_slots:
            return False
        if not self.bus_free:
            return False
        covered = set(range(head, head + cost))
        # evicting part of a unit destroys all of it; every slot of every
        # overlapped unit must be idle, and so must trailing spans.
        for i in covered:
            slot = self.slots[i]
            if slot.is_reconfiguring:
                return False
            if self.slot_busy(i):
                return False
        return True

    # ------------------------------------------------------------ mutation
    def begin_reconfigure(self, head: int, fu_type: FUType) -> int:
        """Start loading a ``fu_type`` unit headed at ``head``.

        Evicts any idle units overlapping the target range.  Returns the
        number of cycles until the unit becomes usable.  Raises
        :class:`FabricError` if the load is not currently possible.
        """
        if not self.range_reconfigurable(head, fu_type):
            raise FabricError(
                f"cannot load {fu_type.short_name} at slot {head}: "
                "range busy, reconfiguring, out of bounds or bus occupied"
            )
        cost = fu_type.slot_cost
        latency = self._load_latency(head, fu_type)
        # evict every unit overlapping [head, head+cost)
        for i in range(head, head + cost):
            h = self.head_of(i)
            if h is not None:
                self._remove_unit(h)
        target = self.slots[head]
        target.pending_type = fu_type
        for i in range(head + 1, head + cost):
            self.slots[i].pending_span_of = head
        self._bus_remaining = latency
        self._bus_target = head
        self.reconfigurations += 1
        return latency

    def _load_latency(self, head: int, fu_type: FUType) -> int:
        """Configuration-bus cycles for this load under the active flow."""
        full = self.reconfig_latency * fu_type.slot_cost
        if self.reconfig_mode == "module":
            return full
        # difference-based: scale by how different the incumbent is
        incumbent_head = self.head_of(head)
        incumbent = (
            self.slots[incumbent_head].unit.fu_type
            if incumbent_head is not None
            else None
        )
        if incumbent is None:
            return full  # empty region: whole bitstream must be written
        if incumbent is fu_type:
            return 1  # identical module: nothing but control frames differ
        same_family = (incumbent in _INT_FAMILY) == (fu_type in _INT_FAMILY)
        return max(1, full // 2) if same_family else full

    def _remove_unit(self, head: int) -> None:
        unit = self.slots[head].unit
        if unit is None:
            raise FabricError(f"no unit headed at slot {head}")
        if not unit.available:
            raise FabricError(f"cannot evict busy unit at slot {head}")
        cost = unit.fu_type.slot_cost
        self.slots[head].unit = None
        for i in range(head + 1, head + cost):
            self.slots[i].span_of = None
        self.structure_version += 1

    def tick(self) -> bool:
        """Advance the configuration bus one cycle; True when the load in
        flight completed.

        Units hold no timers of their own: the register update unit
        releases each one when its instruction completes.
        """
        if self._bus_remaining > 0:
            self._bus_remaining -= 1
            self.bus_busy_cycles += 1
            if self._bus_remaining == 0:
                self._complete_load()
                return True
        return False

    def _complete_load(self) -> None:
        head = self._bus_target
        if head is None:  # pragma: no cover - defensive
            raise FabricError("configuration bus finished with no target")
        slot = self.slots[head]
        fu_type = slot.pending_type
        if fu_type is None:  # pragma: no cover - defensive
            raise FabricError(f"slot {head} finished loading with no pending type")
        slot.pending_type = None
        slot.unit = FunctionalUnit(fu_type, fixed=False)
        for i in range(head + 1, head + fu_type.slot_cost):
            self.slots[i].pending_span_of = None
            self.slots[i].span_of = head
        self._bus_target = None
        self.structure_version += 1
