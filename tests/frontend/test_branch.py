"""Tests for the 2-bit predictor and the BTB."""

import pytest

from repro.errors import SimulationError
from repro.frontend.branch import BTB, BranchPredictor


class TestBranchPredictor:
    def test_initial_prediction_not_taken(self):
        assert BranchPredictor().predict(0) is False

    def test_one_taken_flips_weakly_not_taken(self):
        # counters initialise weakly not-taken (state 1): a single taken
        # outcome moves them to weakly taken
        p = BranchPredictor()
        p.update(0, taken=True)
        assert p.predict(0) is True

    def test_strongly_not_taken_needs_two_takens(self):
        p = BranchPredictor()
        p.update(0, taken=False)  # state 0: strongly not-taken
        p.update(0, taken=True)
        assert p.predict(0) is False
        p.update(0, taken=True)
        assert p.predict(0) is True

    def test_hysteresis(self):
        p = BranchPredictor()
        for _ in range(4):
            p.update(0, taken=True)
        p.update(0, taken=False)  # one not-taken shouldn't flip a strong taken
        assert p.predict(0) is True
        p.update(0, taken=False)
        assert p.predict(0) is False

    def test_counters_saturate(self):
        p = BranchPredictor()
        for _ in range(100):
            p.update(0, taken=False)
        p.update(0, taken=True)
        p.update(0, taken=True)
        assert p.predict(0) is True

    def test_entries_indexed_by_pc(self):
        p = BranchPredictor(entries=4)
        p.update(0, taken=True)
        p.update(0, taken=True)
        assert p.predict(0) is True
        assert p.predict(1) is False
        assert p.predict(4) is True  # aliases with pc 0

    def test_accuracy_tracking(self):
        p = BranchPredictor()
        p.update(0, taken=True, mispredicted=True)
        p.update(0, taken=True, mispredicted=False)
        assert (p.updates, p.mispredictions) == (2, 1)
        assert (BranchPredictor().updates, BranchPredictor().mispredictions) == (0, 0)

    def test_power_of_two_required(self):
        with pytest.raises(SimulationError):
            BranchPredictor(entries=5)


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB()
        assert btb.predict(10) is None
        btb.update(10, 42)
        assert btb.predict(10) == 42
        assert (btb.hits, btb.misses) == (1, 1)

    def test_update_replaces(self):
        btb = BTB()
        btb.update(10, 42)
        btb.update(10, 99)
        assert btb.predict(10) == 99

    def test_capacity_eviction(self):
        btb = BTB(entries=2)
        btb.update(1, 11)
        btb.update(2, 22)
        btb.update(3, 33)  # evicts pc=1
        assert btb.predict(1) is None
        assert btb.predict(3) == 33

    def test_positive_entries_required(self):
        with pytest.raises(SimulationError):
            BTB(entries=0)
