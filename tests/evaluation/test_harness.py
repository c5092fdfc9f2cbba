"""Tests for the one-shot report generator."""

import pytest


@pytest.fixture(scope="module")
def report(fast_report):
    return fast_report.report.text, fast_report.notes


class TestGenerateReport:
    def test_contains_every_artifact_section(self, report):
        text, _ = report
        for section in (
            "Table 1",
            "Table 2",
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Figures 4-6",
            "Figure 7",
        ):
            assert section in text

    def test_contains_every_experiment_section(self, report):
        text, _ = report
        for section in (
            "E-IPC", "E-RL", "E-PH", "E-Q", "E-CEM", "E-FRONT", "E-ORTH",
            "E-COST", "E-DEMAND", "E-BASIS", "E-FLOW", "E-STALL", "E-SPEC",
        ):
            assert f"## {section} — " in text
        assert "## Claims" in text

    def test_progress_callbacks_fire(self, report):
        _, notes = report
        assert any("E-IPC" in n for n in notes)

    def test_report_is_markdown(self, report):
        text, _ = report
        assert text.startswith("# ")
        assert "```" in text
