"""Tests for functional units and the fixed-unit bank.

A unit's busy state belongs to the fabric: :meth:`Fabric.issue` occupies
a unit and :meth:`Fabric.release` frees it, so those transitions are
tested through a fabric.
"""

from collections import Counter

import pytest

from repro.errors import FabricError
from repro.fabric.fabric import Fabric
from repro.fabric.units import FfuBank, FunctionalUnit
from repro.isa.futypes import FU_TYPES, FUType



def _counts(bank):
    """Fixed units per type, for the types the bank has."""
    return dict(Counter(u.fu_type for u in bank.units))

class TestFunctionalUnit:
    def test_starts_available(self):
        u = FunctionalUnit(FUType.INT_ALU)
        assert u.available

    def test_occupy_sets_busy_and_occupant(self):
        u = Fabric().issue(FUType.INT_MDU, occupant=42)
        assert not u.available
        assert u.occupant == 42

    def test_double_occupy_rejected(self):
        fabric = Fabric()  # one LSU, the fixed one
        fabric.issue(FUType.LSU)
        with pytest.raises(FabricError, match="no idle"):
            fabric.issue(FUType.LSU)

    def test_release(self):
        fabric = Fabric()
        u = fabric.issue(FUType.FP_MDU, occupant=7)
        fabric.release(u)
        assert u.available and u.occupant is None
        with pytest.raises(FabricError, match="not busy"):
            fabric.release(u)

    def test_unique_ids(self):
        a, b = FunctionalUnit(FUType.INT_ALU), FunctionalUnit(FUType.INT_ALU)
        assert a.uid != b.uid


class TestFfuBank:
    def test_default_one_per_type(self):
        bank = FfuBank()
        assert _counts(bank) == {t: 1 for t in FU_TYPES}
        assert all(u.fixed for u in bank.units)

    def test_units_of_type(self):
        bank = FfuBank()
        assert [u.fu_type for u in bank.units].count(FUType.FP_ALU) == 1

    def test_custom_counts(self):
        bank = FfuBank({FUType.INT_ALU: 2})
        assert _counts(bank) == {FUType.INT_ALU: 2}
