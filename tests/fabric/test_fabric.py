"""Tests for the combined Fabric (FFUs + RFU slots)."""

import pytest

from repro.errors import FabricError
from repro.fabric.fabric import Fabric
from repro.isa.futypes import FU_TYPES, FUType


def _fabric(latency=1):
    return Fabric(reconfig_latency=latency)


def _load(fabric, head, fu_type):
    fabric.rfus.begin_reconfigure(head, fu_type)
    while not fabric.rfus.bus_free:
        fabric.tick()


class TestCounts:
    def test_initial_counts_are_ffus_only(self):
        f = _fabric()
        assert f.counts() == {t: 1 for t in FU_TYPES}
        assert f.counts(include_ffus=False) == {t: 0 for t in FU_TYPES}

    def test_counts_after_loading(self):
        f = _fabric()
        _load(f, 0, FUType.INT_ALU)
        _load(f, 1, FUType.INT_ALU)
        assert f.counts()[FUType.INT_ALU] == 3

    def test_pending_units_not_counted(self):
        f = Fabric(reconfig_latency=50)
        f.rfus.begin_reconfigure(0, FUType.LSU)
        assert f.counts()[FUType.LSU] == 1  # only the FFU


class TestAvailability:
    def test_ffu_available_initially(self):
        f = _fabric()
        for t in FU_TYPES:
            assert f.available(t)

    def test_unavailable_when_all_busy(self):
        f = _fabric()
        f.issue(FUType.LSU)
        assert not f.available(FUType.LSU)
        assert f.available(FUType.INT_ALU)

    def test_rfu_copy_restores_availability(self):
        f = _fabric()
        _load(f, 0, FUType.LSU)
        f.issue(FUType.LSU)
        assert f.available(FUType.LSU)  # the RFU copy is still idle
        f.issue(FUType.LSU)
        assert not f.available(FUType.LSU)


class TestIssue:
    def test_issue_prefers_ffu(self):
        f = _fabric()
        _load(f, 0, FUType.INT_ALU)
        unit = f.issue(FUType.INT_ALU, occupant=1)
        assert unit.fixed

    def test_issue_uses_rfu_when_ffu_busy(self):
        f = _fabric()
        _load(f, 0, FUType.INT_ALU)
        f.issue(FUType.INT_ALU)
        unit = f.issue(FUType.INT_ALU)
        assert not unit.fixed

    def test_issue_without_idle_unit_raises(self):
        f = _fabric()
        f.issue(FUType.FP_MDU)
        with pytest.raises(FabricError):
            f.issue(FUType.FP_MDU)

    def test_tick_leaves_units_busy_until_released(self):
        """The tick clocks only the configuration bus: a unit stays busy
        until its instruction completes and the RUU releases it."""
        f = _fabric()
        unit = f.issue(FUType.INT_MDU)
        f.tick()
        f.tick()
        assert not f.available(FUType.INT_MDU)
        f.release(unit)
        assert f.available(FUType.INT_MDU)


class TestFullAllocation:
    def test_vector_lengths(self):
        f = _fabric()
        allocation, availability = f.full_allocation()
        assert len(allocation) == len(availability) == 8 + 5

    def test_span_slots_reported(self):
        f = _fabric()
        _load(f, 0, FUType.FP_ALU)
        allocation, availability = f.full_allocation()
        assert allocation[0] == FUType.FP_ALU.encoding
        assert allocation[1] == 0b111
        # span slots mirror the head unit's availability
        assert availability[0] == availability[1] == availability[2]

    def test_utilisation(self):
        f = _fabric()
        f.issue(FUType.INT_ALU)
        busy, total = f.utilisation()[FUType.INT_ALU]
        assert (busy, total) == (1, 1)

    def test_reconfigurations_property(self):
        f = _fabric()
        _load(f, 0, FUType.LSU)
        assert f.reconfigurations == 1


class TestFastPathEquivalence:
    def test_available_equals_eq1_circuit(self):
        """The hot-path unit scan must always agree with evaluating the
        Fig. 7 circuit over the full allocation/availability vectors."""
        import random

        from repro.fabric.availability import available as eq1

        rng = random.Random(0)
        f = _fabric()
        for step in range(300):
            op = rng.random()
            if op < 0.3 and f.rfus.bus_free:
                head = rng.randrange(8)
                t = rng.choice(list(FU_TYPES))
                if f.rfus.range_reconfigurable(head, t):
                    f.rfus.begin_reconfigure(head, t)
            elif op < 0.6:
                t = rng.choice(list(FU_TYPES))
                if f.idle_unit(t) is not None:
                    f.issue(t)
            elif op < 0.8:
                busy = [
                    u for us in f.units_by_type().values() for u in us
                    if not u.available
                ]
                if busy:
                    f.release(rng.choice(busy))
            f.tick()
            allocation, availability = f.full_allocation()
            for t in FU_TYPES:
                assert f.available(t) == eq1(t, allocation, availability), (
                    step,
                    t,
                )
