"""Tests for functional units and the fixed-unit bank."""

import pytest

from repro.errors import FabricError
from repro.fabric.units import FfuBank, FunctionalUnit
from repro.isa.futypes import FU_TYPES, FUType


class TestFunctionalUnit:
    def test_starts_available(self):
        u = FunctionalUnit(FUType.INT_ALU)
        assert u.available

    def test_occupy_sets_busy_and_occupant(self):
        u = FunctionalUnit(FUType.INT_MDU)
        u.occupy(occupant=42)
        assert not u.available
        assert u.occupant == 42

    def test_double_occupy_rejected(self):
        u = FunctionalUnit(FUType.LSU)
        u.occupy()
        with pytest.raises(FabricError, match="busy"):
            u.occupy()

    def test_release(self):
        u = FunctionalUnit(FUType.FP_MDU)
        u.occupy(occupant=7)
        u.release()
        assert u.available and u.occupant is None

    def test_unique_ids(self):
        a, b = FunctionalUnit(FUType.INT_ALU), FunctionalUnit(FUType.INT_ALU)
        assert a.uid != b.uid


class TestFfuBank:
    def test_default_one_per_type(self):
        bank = FfuBank()
        assert bank.counts() == {t: 1 for t in FU_TYPES}
        assert all(u.fixed for u in bank.units)

    def test_units_of_type(self):
        bank = FfuBank()
        assert len(bank.units_of_type(FUType.FP_ALU)) == 1

    def test_custom_counts(self):
        bank = FfuBank({FUType.INT_ALU: 2})
        assert bank.counts() == {FUType.INT_ALU: 2}
