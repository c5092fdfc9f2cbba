"""The experiments' flat metrics (the claims' and the run store's feed)
against the tables the fast report printed."""

import pytest

from tests.evaluation.test_experiments import rows, section


def metrics_of(fast_report, experiment):
    return fast_report.report.metrics[experiment]


def test_latency_sweep_metrics(fast_report):
    metrics = metrics_of(fast_report, "E-RL")
    table = rows(section(fast_report.report, "E-RL"))
    assert [int(row[0]) for row in table] == [1, 4, 16, 64, 256]
    for latency, steering, ffu, reconfigs in table:
        assert f"{metrics[f'steering_ipc_lat{latency}']:.3f}" == steering
        assert f"{metrics[f'ffu_ipc_lat{latency}']:.3f}" == ffu
        assert metrics[f"reconfigs_lat{latency}"] == int(reconfigs)
    assert metrics["ffu_ipc"] == metrics["ffu_ipc_lat1"]
    assert len(metrics) == 3 * len(table) + 1


def test_queue_depth_metrics(fast_report):
    table = rows(section(fast_report.report, "E-Q"))
    metrics = metrics_of(fast_report, "E-Q")
    assert list(metrics) == [f"ipc_depth{depth}" for depth, _ in table]
    assert [f"{v:.3f}" for v in metrics.values()] == [ipc for _, ipc in table]


def test_cem_metrics(fast_report):
    metrics = metrics_of(fast_report, "E-CEM")
    workloads = [row[0] for row in rows(section(fast_report.report, "E-CEM"))]
    approx = [metrics[f"approx/{w}"] for w in workloads]
    exact = [metrics[f"exact/{w}"] for w in workloads]
    assert metrics["mean_approx_ipc"] == pytest.approx(sum(approx) / len(approx))
    assert metrics["mean_exact_ipc"] == pytest.approx(sum(exact) / len(exact))
    assert metrics["max_abs_ipc_gap"] == max(
        abs(a - e) for a, e in zip(approx, exact)
    )


def test_table_metrics_name_every_numeric_cell(fast_report):
    """A table experiment's metrics are ``"<column>/<row>"`` for its
    numeric cells; E-STALL's "a -> b" IPC column is text and is left out."""
    metrics = metrics_of(fast_report, "E-STALL")
    table = rows(section(fast_report.report, "E-STALL"))
    columns = ["blocked (ffu)", "blocked (steer)",
               "contention (ffu)", "contention (steer)"]
    assert metrics == {
        f"{column}/{row[0]}": int(cell)
        for row in table
        for column, cell in zip(columns, row[1:])
    }
    demand = metrics_of(fast_report, "E-DEMAND")
    assert {k.split("/")[1] for k in demand} == {
        row[0] for row in rows(section(fast_report.report, "E-DEMAND"))
    }
    assert demand["reconfigs demand/phased"] > 0
