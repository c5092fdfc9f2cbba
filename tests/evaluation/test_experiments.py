"""The experiments as the fast report ran them: table cells, the E-IPC
summary rows, the E-PH selection runs, the E-ORTH anchors and the E-COST
netlist sums, read off the report's sections and metrics.

The experiments' shape checks are claims in
:mod:`repro.evaluation.claims`, checked on the report (test_claims.py).
"""

import inspect
import re

import pytest

from repro.evaluation.batch import ResultCache, run_many
from repro.evaluation.experiments import EXPERIMENTS, TELEMETRY


def section(report, experiment: str) -> str:
    """The body of ``experiment``'s section of the report."""
    text = report.text
    start = text.index("```\n", text.index(f"## {experiment} — ")) + 4
    return text[start : text.index("\n```", start)]


def rows(block: str) -> list[list[str]]:
    """The cells of one rendered table (below its rule of dashes)."""
    lines = block.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    return [re.split(r"\s{2,}", line.strip()) for line in lines[rule + 1 :]]


def replay(fast_report, experiment: str):
    """Run ``experiment`` again over the report's disk cache, keeping the
    raw results its runner returned; returns the outcome, those results
    and the cache (whose misses count the simulations the replay ran)."""
    cache = ResultCache(fast_report.cache_dir)
    returned = []

    def run(jobs):
        results = run_many(jobs, cache=cache)
        returned.extend(results)
        return results

    (measure,) = [m for name, m in EXPERIMENTS if name == experiment]
    return measure(1, run), returned, cache


def test_table_lists_every_report_section(fast_report):
    names = [name for name, _ in EXPERIMENTS]
    assert len(set(names)) == len(names) == 13
    assert [n for n in fast_report.report.metrics if n.startswith("E-")] == names


def test_every_experiment_takes_scale_and_runner():
    for _, measure in EXPERIMENTS + (TELEMETRY,):
        assert list(inspect.signature(measure).parameters) == ["scale", "run"]


class TestIpcComparison:
    @pytest.fixture(scope="class")
    def ipc(self, fast_report):
        return fast_report.report.metrics["E-IPC"]

    @pytest.fixture(scope="class")
    def policies(self, ipc):
        return [k[len("mean_ipc_"):] for k in ipc if k.startswith("mean_ipc_")]

    @pytest.fixture(scope="class")
    def table(self, fast_report):
        return rows(section(fast_report.report, "E-IPC"))

    def test_all_cells_populated(self, ipc, policies, table):
        workloads = [row[0] for row in table[:-1]]
        assert len(policies) == len(workloads) == 7
        for w in workloads:
            for p in policies:
                assert ipc[f"{p}/{w}"] > 0

    def test_render(self, fast_report, ipc, policies, table):
        assert "E-IPC: IPC by policy" in section(fast_report.report, "E-IPC")
        mean = table[-1]
        assert mean[0] == "MEAN"
        assert mean[1:] == [f"{ipc[f'mean_ipc_{p}']:.3f}" for p in policies]
        for p in policies:
            cells = [ipc[f"{p}/{row[0]}"] for row in table[:-1]]
            assert ipc[f"mean_ipc_{p}"] == pytest.approx(sum(cells) / len(cells))

    def test_winner_helper(self, ipc, policies, table):
        winners = [
            max(policies, key=lambda p: ipc[f"{p}/{row[0]}"]) for row in table[:-1]
        ]
        assert ipc["steering_wins"] == winners.count("steering")


class TestPhaseAdaptation:
    @pytest.fixture(scope="class")
    def replayed(self, fast_report):
        return replay(fast_report, "E-PH")

    def test_replay_reads_the_report(self, fast_report, replayed):
        (_, body, metrics), _, cache = replayed
        assert cache.misses == 0  # answered from the report's runs
        assert metrics == fast_report.report.metrics["E-PH"]
        assert body == section(fast_report.report, "E-PH")

    def test_selection_trace_covers_run(self, replayed):
        _, (traced,), _ = replayed
        runs = traced["selection_runs"]
        assert sum(length for _, _, length in runs) == traced["result"].cycles
        assert [first for _, first, _ in runs] == [
            sum(length for _, _, length in runs[:i]) for i in range(len(runs))
        ]
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))

    def test_kept_fraction_bounded(self, fast_report):
        assert 0.0 <= fast_report.report.metrics["E-PH"]["kept_fraction"] <= 1.0


class TestOrthogonality:
    def test_study_returns_anchors_plus_random(self, fast_report):
        names = [row[0] for row in rows(section(fast_report.report, "E-ORTH"))]
        assert names[:2] == ["paper", "degenerate"]
        assert names[2:] == [f"random-{k}" for k in range(6)]

    def test_similarity_in_unit_interval(self, fast_report):
        metrics = fast_report.report.metrics["E-ORTH"]
        bases = [k.split("/", 1)[1] for k in metrics if k.startswith("similarity/")]
        assert len(bases) == 8
        assert metrics["similarity/degenerate"] == pytest.approx(1.0)
        for basis in bases:
            assert 0.0 <= metrics[f"similarity/{basis}"] <= 1.0
            assert metrics[f"IPC/{basis}"] > 0


class TestCircuitCost:
    @pytest.fixture(scope="class")
    def tables(self, fast_report):
        blocks = section(fast_report.report, "E-COST").split("\n\n")
        return {
            int(re.search(r"(\d+)-entry", block).group(1)): rows(block)
            for block in blocks
        }

    def test_report_renders(self, fast_report, tables):
        body = section(fast_report.report, "E-COST")
        assert body.count("E-COST: selection unit") == 3
        assert list(tables) == [4, 7, 16]
        assert all(table[0][0] == "unit_decoders" for table in tables.values())

    def test_multiple_queue_sizes(self, fast_report, tables):
        metrics = fast_report.report.metrics["E-COST"]
        assert metrics["gates_q4"] < metrics["gates_q7"] < metrics["gates_q16"]
        for n, table in tables.items():
            *stages, (name, total, depth) = [
                (s, int(g), int(d)) for s, g, d in table
            ]
            assert name == "total"
            assert sum(gates for _, gates, _ in stages) == total
            assert total == metrics[f"gates_q{n}"]
            assert depth == stages[-1][2] == metrics[f"depth_q{n}"]
