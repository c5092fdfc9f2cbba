"""Tests for the configuration loader (§3.2)."""

import pytest

from repro.fabric.configuration import (
    CONFIG_FLOATING,
    CONFIG_INTEGER,
    CONFIG_MEMORY,
)
from repro.fabric.fabric import Fabric
from repro.isa.futypes import FUType
from repro.steering.loader import ConfigurationLoader
from tests.fabric.slot_counts import rfu_loaded


def _drive(loader, fabric, cycles):
    """Clock loader + fabric for a number of cycles."""
    plans = []
    for _ in range(cycles):
        plan = loader.step()
        if plan:
            plans.append(plan)
        fabric.tick()
    return plans


@pytest.fixture
def fabric():
    return Fabric(reconfig_latency=1)


@pytest.fixture
def loader(fabric):
    return ConfigurationLoader(fabric)


class TestTargeting:
    def test_no_target_no_loads(self, loader, fabric):
        assert _drive(loader, fabric, 10) == []
        assert fabric.reconfigurations == 0

    def test_loads_target_configuration(self, loader, fabric):
        loader.set_target(CONFIG_INTEGER)
        _drive(loader, fabric, 60)
        assert rfu_loaded(fabric.rfus) == {FUType.INT_ALU: 4, FUType.INT_MDU: 2}
        assert loader.satisfied

    def test_current_counts_include_ffus(self, loader, fabric):
        loader.set_target(CONFIG_INTEGER)
        _drive(loader, fabric, 60)
        assert fabric.counts_tuple() == (5, 3, 1, 1, 1)

    def test_largest_units_placed_first(self, loader, fabric):
        loader.set_target(CONFIG_FLOATING)
        plan = loader.step()
        assert plan.fu_type in (FUType.FP_ALU, FUType.FP_MDU)

    def test_one_load_per_bus_transfer(self, loader, fabric):
        fabric.rfus.reconfig_latency = 10
        loader.set_target(CONFIG_INTEGER)
        assert loader.step() is not None
        assert loader.step() is None  # bus is busy


class TestHybridOverlap:
    def test_matching_units_kept(self, fabric, loader):
        """An RFU already implementing the right type is never reloaded."""
        loader.set_target(CONFIG_INTEGER)
        _drive(loader, fabric, 60)
        loaded = fabric.reconfigurations
        # switch to memory: the 2 IALUs and 1 IMDU it wants are already there
        loader.set_target(CONFIG_MEMORY)
        _drive(loader, fabric, 60)
        assert rfu_loaded(fabric.rfus) == {
            FUType.INT_ALU: 2,
            FUType.INT_MDU: 1,
            FUType.LSU: 4,
        }
        # only the 4 LSUs needed loading
        assert fabric.reconfigurations == loaded + 4

    def test_busy_unit_not_reconfigured(self, fabric, loader):
        loader.set_target(CONFIG_INTEGER)
        _drive(loader, fabric, 60)
        # occupy every unit of the loaded types (the fixed ones first) with a
        # long-latency op
        for _, unit in fabric.rfus.units():
            while fabric.idle_counts()[unit.fu_type]:
                fabric.issue(unit.fu_type)
        assert all(unit.busy for _, unit in fabric.rfus.units())
        loader.set_target(CONFIG_FLOATING)
        _drive(loader, fabric, 20)
        # nothing could change: all slots busy
        assert rfu_loaded(fabric.rfus) == {FUType.INT_ALU: 4, FUType.INT_MDU: 2}
        assert not loader.satisfied

    def test_partial_steering_around_busy_slot(self, fabric, loader):
        """Idle slots steer toward the target while a busy one holds out:
        the active configuration becomes a hybrid of two steering configs."""
        loader.set_target(CONFIG_INTEGER)
        _drive(loader, fabric, 60)
        # keep one IALU busy, leave the rest idle: the fixed IALU takes the
        # first issue, the first loaded one the second
        fabric.issue(FUType.INT_ALU)
        busy_unit = fabric.issue(FUType.INT_ALU)
        loaded = [u for _, u in fabric.rfus.units() if u.fu_type is FUType.INT_ALU]
        fixed = [u for u in fabric.ffus.units if u.fu_type is FUType.INT_ALU]
        assert busy_unit is loaded[0]
        fabric.release(fixed[0])
        loader.set_target(CONFIG_FLOATING)
        _drive(loader, fabric, 60)
        counts = rfu_loaded(fabric.rfus)
        # the busy IALU survived; FP units landed in the freed slots
        assert counts[FUType.INT_ALU] >= 1
        assert counts.get(FUType.FP_ALU, 0) >= 1 or counts.get(FUType.FP_MDU, 0) >= 1

    def test_pending_loads_count_toward_target(self, fabric, loader):
        fabric.rfus.reconfig_latency = 50
        loader.set_target(CONFIG_FLOATING)
        loader.step()  # starts the first FP unit
        missing = loader.missing_units()
        # the in-flight FP unit must not be requested again
        assert missing.count(FUType.FP_ALU) + missing.count(FUType.FP_MDU) == 1


class TestMissingAndSurplus:
    def test_missing_units_ordering(self, loader):
        loader.set_target(CONFIG_FLOATING)
        missing = loader.missing_units()
        costs = [t.slot_cost for t in missing]
        assert costs == sorted(costs, reverse=True)

    def test_no_target_nothing_missing(self, loader):
        assert loader.missing_units() == []
        assert loader.satisfied

    def test_history_records_plans(self, fabric, loader):
        loader.set_target(CONFIG_MEMORY)
        plans = _drive(loader, fabric, 60)
        assert loader.history == plans
        assert all(p.latency >= 1 for p in plans)

    def test_defragmentation_relocates_wanted_units(self, fabric, loader):
        """Regression: churn can fragment the fabric (e.g. AALDDDMM) so no
        contiguous run fits a 3-slot unit without touching a wanted unit.
        The fallback relocates a smaller wanted unit and still converges
        (found by the loader property test)."""
        loader.set_target(CONFIG_FLOATING)
        for _ in range(5):
            loader.step()
            fabric.tick()
        loader.set_target(CONFIG_MEMORY)
        for _ in range(5):
            loader.step()
            fabric.tick()
        loader.set_target(CONFIG_FLOATING)
        for _ in range(80):
            loader.step()
            fabric.tick()
        assert loader.satisfied
        counts = rfu_loaded(fabric.rfus)
        assert counts.get(FUType.FP_ALU, 0) == 1
        assert counts.get(FUType.FP_MDU, 0) == 1

    def test_eviction_recorded_in_plan(self, fabric, loader):
        loader.set_target(CONFIG_INTEGER)
        _drive(loader, fabric, 60)
        loader.set_target(CONFIG_FLOATING)
        plans = _drive(loader, fabric, 60)
        evicted = [t for p in plans for t in p.evicted]
        assert FUType.INT_ALU in evicted or FUType.INT_MDU in evicted


class TestMissingUnitsMemo:
    """The memo is rebuilt whenever the answer could move."""

    @staticmethod
    def _fresh(loader):
        return loader._count_missing()

    def test_load_into_empty_slots_invalidates(self, fabric, loader):
        fabric.rfus.reconfig_latency = 50
        loader.set_target(CONFIG_FLOATING)
        before = loader.missing_units()
        version = fabric.rfus.structure_version
        assert loader.step() is not None
        # nothing was evicted, only a load started into empty slots
        assert fabric.rfus.structure_version == version
        after = loader.missing_units()
        assert after == self._fresh(loader)
        assert len(after) == len(before) - 1

    def test_eviction_invalidates(self, fabric, loader):
        loader.set_target(CONFIG_INTEGER)
        _drive(loader, fabric, 60)
        assert loader.missing_units() == []
        head = fabric.rfus.units()[0][0]
        fabric.rfus._remove_unit(head)  # an eviction, and nothing else
        fabric._index()  # as Fabric.begin_reconfigure re-indexes after one
        assert loader.missing_units() == self._fresh(loader) != []

    def test_load_completion_invalidates(self, fabric, loader):
        fabric.rfus.reconfig_latency = 3
        loader.set_target(CONFIG_MEMORY)
        plan = loader.step()
        in_flight = loader.missing_units()
        for _ in range(plan.latency - 1):
            fabric.tick()
            assert loader.missing_units() is in_flight  # nothing moved yet
        version = fabric.rfus.structure_version
        fabric.tick()  # the load completes
        assert fabric.rfus.structure_version != version
        assert loader.missing_units() is not in_flight
        assert loader.missing_units() == self._fresh(loader) == in_flight

    def test_retarget_invalidates(self, loader):
        loader.set_target(CONFIG_MEMORY)
        memory = loader.missing_units()
        loader.set_target(CONFIG_FLOATING)
        assert loader.missing_units() == self._fresh(loader) != memory
        loader.set_target(None)
        assert loader.missing_units() == []

    def test_matches_recount_while_steering(self, fabric, loader):
        targets = [CONFIG_INTEGER, CONFIG_FLOATING, None, CONFIG_MEMORY]
        for cycle in range(400):
            if cycle % 37 == 0:
                loader.set_target(targets[(cycle // 37) % len(targets)])
            assert loader.missing_units() == self._fresh(loader)
            loader.step()
            fabric.tick()
