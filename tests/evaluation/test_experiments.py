"""Tests for the experiment helpers: row structure, rendering, lookups.

The experiments' shape checks are claims in
:mod:`repro.evaluation.claims`, checked on the report (test_claims.py).
"""

import pytest

from repro.core.params import ProcessorParams
from repro.evaluation.experiments import (
    run_circuit_cost_report,
    run_ipc_comparison,
    run_orthogonality_study,
    run_phase_adaptation,
)
from repro.workloads.kernels import checksum, memcpy
from repro.workloads.synthetic import FP_MIX, INT_MIX

_SMALL = [
    ("checksum", checksum(iterations=150).program),
    ("memcpy", memcpy(n=60).program),
]


class TestIpcComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_ipc_comparison(workloads=_SMALL, include_oracle=True)

    def test_all_cells_populated(self, comparison):
        for w in comparison.workloads:
            for p in comparison.policies:
                assert comparison.ipc[w][p] > 0

    def test_render(self, comparison):
        text = comparison.render()
        assert "E-IPC" in text and "MEAN" in text

    def test_winner_helper(self, comparison):
        assert comparison.winner("memcpy") in comparison.policies


class TestPhaseAdaptation:
    @pytest.fixture(scope="class")
    def adaptation(self):
        return run_phase_adaptation(
            phases=[(INT_MIX, 30), (FP_MIX, 30)],
            params=ProcessorParams(reconfig_latency=4),
        )

    def test_selection_trace_covers_run(self, adaptation):
        assert len(adaptation.selections) == adaptation.result.cycles

    def test_kept_fraction_bounded(self, adaptation):
        assert 0.0 <= adaptation.kept_fraction <= 1.0


class TestOrthogonality:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_orthogonality_study(n_bases=2, max_cycles=60_000)

    def test_study_returns_anchors_plus_random(self, rows):
        names = [r[0] for r in rows]
        assert names[0] == "paper"
        assert names[1] == "degenerate"
        assert len(rows) == 4

    def test_similarity_in_unit_interval(self, rows):
        for _, sim, ipc in rows:
            assert 0.0 <= sim <= 1.0
            assert ipc > 0


class TestCircuitCost:
    def test_report_renders(self):
        text = run_circuit_cost_report([7])
        assert "E-COST" in text
        assert "unit_decoders" in text

    def test_multiple_queue_sizes(self):
        text = run_circuit_cost_report([4, 7, 16])
        assert text.count("E-COST") == 3
