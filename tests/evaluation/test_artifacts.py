"""Tests for the table/figure regeneration artifacts."""

import pytest

from repro.evaluation.artifacts import (
    eq1_check,
    figure1_inventory,
    figure2_selection_demo,
    figure3_cem_study,
    figure456_wakeup_example,
    figure7_availability_check,
    table1,
    table2,
)


class TestTable1:
    def test_contains_all_configurations(self):
        text = table1()
        for name in ("FFUs", "integer", "memory", "floating"):
            assert name in text

    def test_slot_budget_shown(self):
        # every steering config fills exactly 8 slots
        for line in table1().splitlines()[2:]:
            assert line.rstrip().endswith("8")


class TestTable2:
    def test_all_encodings_listed(self):
        text = table2()
        for encoding in ("000", "001", "010", "011", "100", "101", "111"):
            assert encoding in text
        for token in ("EMPTY", "SPAN", "IALU", "FPMDU"):
            assert token in text


class TestFigure1:
    def test_inventory_lists_modules(self):
        text = figure1_inventory()
        for module in (
            "instruction memory",
            "data memory",
            "fetch unit",
            "trace cache",
            "instruction decoder",
            "register update unit",
            "register files",
            "fixed functional units",
            "reconfigurable slots",
            "configuration management",
            "wake-up array",
        ):
            assert module in text


class TestFigure2:
    def test_each_queue_selects_its_config(self):
        text = figure2_selection_demo()
        lines = [l for l in text.splitlines() if l and not l.startswith(("Figure", "queue", "-"))]
        assert len(lines) == 3
        assert "integer" in lines[0]
        assert "memory" in lines[1]
        assert "floating" in lines[2]


class TestFigure3:
    @pytest.fixture(scope="class")
    def study(self):
        return figure3_cem_study(samples=400, seed=1)

    def test_term_error_bounded_by_one(self, study):
        """The shifter divides by a power of two <= available, so the
        per-term error never exceeds 1 instruction-per-unit."""
        assert study.max_term_error <= 1.0

    def test_mean_error_small(self, study):
        assert study.mean_term_error < 0.5

    def test_selection_agreement_high(self, study):
        """The cheap circuit picks the exact-division winner most of the
        time — the justification for the approximation."""
        assert study.selection_agreement > 0.75

    def test_tables_render(self, study):
        assert "Figure 3(c)" in study.shift_table
        assert "approx (exact)" in study.table


class TestFigures456:
    @pytest.fixture(scope="class")
    def text(self):
        return figure456_wakeup_example()

    def test_dependency_graph_matches_paper(self, text):
        assert "Entry 3 (Add) <- Shift, Sub" in text
        assert "Entry 4 (Mul) <- Sub" in text
        assert "Entry 6 (FPMul) <- Load" in text
        assert "Entry 7 (FPAdd) <- FPMul" in text

    def test_load_entry_independent(self, text):
        # Entry 5 (Load) has no dependence arrow
        for line in text.splitlines():
            if "(Load)" in line and "Entry 5" in line:
                assert "<-" not in line

    def test_first_wave_is_independent_entries(self, text):
        assert "request=['Shift', 'Sub', 'Load']" in text

    def test_example_drains_completely(self, text):
        assert "'FPAdd'" in text.split("retire=")[-1] or "FPAdd" in text

    def test_array_rendered(self, text):
        assert "Figure 5: wake-up array contents" in text
        assert "(FPMul) E6" in text


class TestFigure7:
    def test_random_check_passes_and_reports(self):
        text = figure7_availability_check(samples=100, seed=2)
        assert "all agree" in text
        assert "available(t) per type" in text

    def test_eq1_check_counts_every_type_per_sample(self):
        cases, mismatches = eq1_check(samples=50, seed=3)
        assert (cases, mismatches) == (50 * 5, 0)

    def test_live_fabric_demo_shows_span(self):
        text = figure7_availability_check(samples=10)
        assert "SPAN" in text
        assert "FFU" in text
