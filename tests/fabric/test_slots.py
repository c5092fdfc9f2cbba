"""Tests for the reconfigurable slot array and partial reconfiguration."""

import pytest

from repro.errors import FabricError
from repro.fabric.slots import RfuSlotArray
from repro.isa.futypes import FUType


def _loaded_array(**kwargs):
    """Array with an INT_ALU at slot 0 and an FP_ALU at slots 1-3."""
    arr = RfuSlotArray(**kwargs)
    arr.begin_reconfigure(0, FUType.INT_ALU)
    _drain(arr)
    arr.begin_reconfigure(1, FUType.FP_ALU)
    _drain(arr)
    return arr


def _drain(arr, limit=1000):
    for _ in range(limit):
        if arr.bus_free:
            return
        arr.tick()
    raise AssertionError("bus never freed")


class TestLoading:
    def test_load_single_slot_unit(self):
        arr = RfuSlotArray(reconfig_latency=4)
        latency = arr.begin_reconfigure(0, FUType.INT_ALU)
        assert latency == 4
        assert arr.counts() == {}  # not usable yet
        assert arr.pending_counts() == {FUType.INT_ALU: 1}
        for _ in range(4):
            arr.tick()
        assert arr.counts() == {FUType.INT_ALU: 1}
        assert arr.pending_counts() == {}

    def test_multi_slot_latency_scales_with_cost(self):
        arr = RfuSlotArray(reconfig_latency=4)
        assert arr.begin_reconfigure(0, FUType.FP_ALU) == 12

    def test_span_slots_installed(self):
        arr = RfuSlotArray(reconfig_latency=1)
        arr.begin_reconfigure(2, FUType.FP_MDU)
        _drain(arr)
        assert arr.head_of(2) == 2
        assert arr.head_of(3) == 2
        assert arr.head_of(4) == 2
        vec = arr.allocation_vector()
        assert vec[2] == FUType.FP_MDU.encoding
        assert vec[3] == vec[4] == 0b111

    def test_bus_exclusivity(self):
        """Only one unit loads at a time (single configuration port)."""
        arr = RfuSlotArray(reconfig_latency=4)
        arr.begin_reconfigure(0, FUType.INT_ALU)
        assert not arr.bus_free
        with pytest.raises(FabricError):
            arr.begin_reconfigure(4, FUType.LSU)

    def test_out_of_bounds_rejected(self):
        arr = RfuSlotArray()
        with pytest.raises(FabricError):
            arr.begin_reconfigure(6, FUType.FP_ALU)
        with pytest.raises(FabricError):
            arr.begin_reconfigure(-1, FUType.INT_ALU)

    def test_reconfigurations_counted(self):
        arr = _loaded_array(reconfig_latency=1)
        assert arr.reconfigurations == 2


class TestEviction:
    def test_idle_unit_evicted_by_overlap(self):
        arr = _loaded_array(reconfig_latency=1)
        # overwrite the FP_ALU at slots 1-3 with an LSU at slot 2
        arr.begin_reconfigure(2, FUType.LSU)
        assert arr.counts() == {FUType.INT_ALU: 1}  # FP_ALU gone immediately
        _drain(arr)
        assert arr.counts() == {FUType.INT_ALU: 1, FUType.LSU: 1}

    def test_eviction_clears_all_span_slots(self):
        arr = _loaded_array(reconfig_latency=1)
        arr.begin_reconfigure(2, FUType.LSU)
        _drain(arr)
        # slots 1 and 3 (former FP_ALU parts) must now be empty
        assert arr.slots[1].is_empty
        assert arr.slots[3].is_empty

    def test_busy_unit_protected(self):
        """§3.2: an RFU executing a multi-cycle op cannot be reconfigured."""
        arr = _loaded_array(reconfig_latency=1)
        fp = arr.units_of_type(FUType.FP_ALU)[0]
        fp.busy = True
        with pytest.raises(FabricError):
            arr.begin_reconfigure(1, FUType.LSU)
        assert not arr.range_reconfigurable(3, FUType.LSU)  # span slot busy too

    def test_busy_unit_reconfigurable_after_retirement(self):
        arr = _loaded_array(reconfig_latency=1)
        fp = arr.units_of_type(FUType.FP_ALU)[0]
        fp.busy = True
        assert not arr.range_reconfigurable(1, FUType.LSU)
        fp.busy = False  # the instruction retired
        assert arr.range_reconfigurable(1, FUType.LSU)

    def test_reconfiguring_slot_not_retargetable(self):
        arr = RfuSlotArray(reconfig_latency=10)
        arr.begin_reconfigure(0, FUType.INT_ALU)
        assert not arr.range_reconfigurable(0, FUType.LSU)


class TestQueries:
    def test_counts_and_units(self):
        arr = _loaded_array(reconfig_latency=1)
        assert arr.counts() == {FUType.INT_ALU: 1, FUType.FP_ALU: 1}
        assert len(arr.units()) == 2

    def test_slot_busy(self):
        arr = _loaded_array(reconfig_latency=1)
        arr.units_of_type(FUType.FP_ALU)[0].busy = True
        assert arr.slot_busy(1) and arr.slot_busy(2) and arr.slot_busy(3)
        assert not arr.slot_busy(0)
        assert not arr.slot_busy(7)

    def test_bus_busy_cycles_accumulate(self):
        arr = RfuSlotArray(reconfig_latency=3)
        arr.begin_reconfigure(0, FUType.INT_ALU)
        _drain(arr)
        assert arr.bus_busy_cycles == 3

    def test_invalid_construction(self):
        with pytest.raises(FabricError):
            RfuSlotArray(n_slots=0)
        with pytest.raises(FabricError):
            RfuSlotArray(reconfig_latency=0)
