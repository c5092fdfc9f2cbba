"""The configuration loader (§3.2).

Once the selection unit chooses a steering configuration, the loader diffs
it against the resource-allocation vector and reconfigures, one unit per
configuration-bus transfer, only the RFU slots that are **not busy**:

* units the target also wants are kept in place (an RFU already
  implementing the specified type is never reloaded);
* units the target does not want are evicted — but only when idle; a unit
  executing a multi-cycle instruction keeps its slots until it retires
  (and by then a different target may have been selected);
* units still missing are placed into contiguous runs of free/evictable
  slots, largest units first (they are the hardest to place).

Because only idle slots change, the active configuration is generally a
*hybrid overlap* of steering configurations — exactly the behaviour the
paper describes.

:meth:`ConfigurationLoader.missing_units` moves only with the target, the
configured units (the slot array's ``structure_version``) and the units in
flight (a load into empty slots bumps only ``reconfigurations``), so it is
memoised on those three.  Whether a missing unit can be placed moves with
them and with the busy state of the reconfigurable units, so a
:meth:`ConfigurationLoader.step` that placed nothing is remembered under
those three and the availability cache's ``rfu_flips``: until one of the
four moves, the next step returns ``None`` without searching again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.configuration import Configuration
from repro.fabric.fabric import Fabric
from repro.isa.futypes import FU_TYPES, FUType

__all__ = ["LoadPlan", "ConfigurationLoader"]

#: memo key of a loader that has not counted its missing units yet.
_UNSET = object()


def _slot_cost_of(fu_type: FUType) -> int:
    """Sort key for the placement order (largest units are hardest to
    place); a named function so the per-cycle path allocates no closure."""
    return fu_type.slot_cost


@dataclass(frozen=True, slots=True)
class LoadPlan:
    """One reconfiguration the loader has initiated."""

    head: int
    fu_type: FUType
    evicted: tuple[FUType, ...]
    latency: int


@dataclass(slots=True)
class _RunCandidate:
    head: int
    evictions: int
    #: total slot cost of *wanted* (non-surplus) units the run evicts.
    wanted_cost: int


class ConfigurationLoader:
    """Steers the fabric toward the selected configuration, one load per bus
    transfer, never touching a busy slot."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self._target: Configuration | None = None
        #: completed loads, for statistics/tracing.
        self.history: list[LoadPlan] = []
        #: missing_units() memo and its key: the target object, the slot
        #: array's structure version and its reconfiguration count.
        self._missing: list[FUType] = []
        self._missing_target: object = _UNSET
        self._missing_version = -1
        self._missing_reconfigs = -1
        #: the key of the last step that placed nothing: target, structure
        #: version, reconfiguration count and RFU busy flips.
        self._avail = fabric._avail
        self._blocked_target: object = _UNSET
        self._blocked_version = -1
        self._blocked_reconfigs = -1
        self._blocked_flips = -1

    # ------------------------------------------------------------- target
    @property
    def target(self) -> Configuration | None:
        return self._target

    def set_target(self, config: Configuration | None) -> None:
        """Select the configuration to steer toward (None = keep current)."""
        self._target = config

    # ------------------------------------------------------------- queries
    def current_counts(self) -> tuple[int, ...]:
        """Units currently configured per type, fixed + loaded reconfigurable.

        This is the Fig. 2 input the loader feeds back to the selection
        unit's current-configuration CEM generator.
        """
        return self.fabric.counts_tuple()

    def _have(self) -> dict[FUType, int]:
        """Loaded + in-flight units per type (RFU portion only)."""
        have: dict[FUType, int] = {}
        for t, n in self.fabric.rfus.counts().items():
            have[t] = n
        for t, n in self.fabric.rfus.pending_counts().items():
            have[t] = have.get(t, 0) + n
        return have

    def missing_units(self) -> list[FUType]:
        """Unit types the target still lacks, largest slot cost first.

        Memoised (see the module docstring): treat the list as read-only.
        """
        rfus = self.fabric.rfus
        target = self._target
        if (
            target is not self._missing_target
            or rfus.structure_version != self._missing_version
            or rfus.reconfigurations != self._missing_reconfigs
        ):
            self._missing = self._count_missing()
            self._missing_target = target
            self._missing_version = rfus.structure_version
            self._missing_reconfigs = rfus.reconfigurations
        return self._missing

    def _count_missing(self) -> list[FUType]:
        if self._target is None:
            return []
        have = self._have()
        missing: list[FUType] = []
        for t in FU_TYPES:
            deficit = self._target.count(t) - have.get(t, 0)
            missing.extend([t] * max(0, deficit))
        missing.sort(key=_slot_cost_of, reverse=True)
        return missing

    def _surplus(self) -> dict[FUType, int]:
        """Units per type beyond what the target wants (eviction budget)."""
        if self._target is None:
            return {}
        have = self._have()
        surplus: dict[FUType, int] = {}
        for t in FU_TYPES:
            surplus[t] = max(0, have.get(t, 0) - self._target.count(t))
        return surplus

    def _find_run(
        self, fu_type: FUType, max_wanted_cost: int = 0
    ) -> _RunCandidate | None:
        """Best placement for one ``fu_type`` unit: a contiguous slot run
        that is loadable now and evicts as little as possible.

        With ``max_wanted_cost == 0`` (the normal pass) the run may only
        evict *surplus* units.  A positive budget enables the
        defragmentation fallback: the run may additionally relocate wanted
        units totalling at most that many slots — they re-enter the
        missing list and are re-placed later.  Keeping the budget strictly
        below the placed unit's cost makes total missing slot-cost
        monotonically decreasing, so relocation cannot livelock.
        """
        rfus = self.fabric.rfus
        cost = fu_type.slot_cost
        surplus = self._surplus()
        best: _RunCandidate | None = None
        for head in range(rfus.n_slots - cost + 1):
            if not rfus.range_reconfigurable(head, fu_type):
                continue
            # units this run would evict, counted once each (dict keyed by
            # head slot doubles as an insertion-ordered set)
            evict_heads: dict[int, None] = {}
            for i in range(head, head + cost):
                h = rfus.head_of(i)
                if h is not None:
                    evict_heads[h] = None
            per_type: dict[FUType, int] = {}
            for h in evict_heads:
                t = rfus.slots[h].unit.fu_type
                per_type[t] = per_type.get(t, 0) + 1
            wanted_cost = 0
            for t, n in per_type.items():
                wanted_cost += max(0, n - surplus.get(t, 0)) * t.slot_cost
            if wanted_cost > max_wanted_cost:
                continue
            candidate = _RunCandidate(
                head=head, evictions=len(evict_heads), wanted_cost=wanted_cost
            )
            if best is None or (candidate.wanted_cost, candidate.evictions) < (
                best.wanted_cost,
                best.evictions,
            ):
                best = candidate
        return best

    # ------------------------------------------------------------- stepping
    def step(self) -> LoadPlan | None:
        """Advance the steering by at most one reconfiguration.

        Called once per cycle by the configuration manager.  Returns the
        :class:`LoadPlan` started this cycle, or None when nothing can (or
        needs to) change: target already satisfied, bus busy, or every
        useful slot busy executing.
        """
        target = self._target
        rfus = self.fabric.rfus
        if target is None or rfus._bus_remaining:  # bus_free, read flat
            return None
        if (
            target is self._blocked_target
            and rfus.structure_version == self._blocked_version
            and rfus.reconfigurations == self._blocked_reconfigs
            and self._avail.rfu_flips == self._blocked_flips
        ):
            return None  # nothing the last search depended on has moved
        missing = self.missing_units()
        plan = self._place(missing)
        if plan is None:
            self._blocked_target = target
            self._blocked_version = rfus.structure_version
            self._blocked_reconfigs = rfus.reconfigurations
            self._blocked_flips = self._avail.rfu_flips
        return plan

    def _place(self, missing: list[FUType]) -> LoadPlan | None:
        """Start the load of the first missing unit that fits, if any."""
        for fu_type in missing:
            run = self._find_run(fu_type)
            if run is not None:
                return self._start_load(fu_type, run)
        # defragmentation fallback: nothing fits without relocating a
        # wanted unit — allow relocations strictly smaller than the unit
        # being placed (see _find_run's no-livelock argument)
        for fu_type in missing:
            if fu_type.slot_cost <= 1:
                continue  # a 1-slot unit can't buy progress by relocation
            run = self._find_run(fu_type, max_wanted_cost=fu_type.slot_cost - 1)
            if run is not None:
                return self._start_load(fu_type, run)
        return None

    def _start_load(self, fu_type: FUType, run: _RunCandidate) -> LoadPlan:
        rfus = self.fabric.rfus
        evict_heads: dict[int, FUType] = {}
        for i in range(run.head, run.head + fu_type.slot_cost):
            h = rfus.head_of(i)
            if h is not None:
                evict_heads[h] = rfus.slots[h].unit.fu_type
        latency = rfus.begin_reconfigure(run.head, fu_type)
        plan = LoadPlan(
            head=run.head,
            fu_type=fu_type,
            evicted=tuple(evict_heads.values()),
            latency=latency,
        )
        self.history.append(plan)
        return plan

    @property
    def satisfied(self) -> bool:
        """True when the target (if any) is fully loaded or in flight."""
        return not self.missing_units()
