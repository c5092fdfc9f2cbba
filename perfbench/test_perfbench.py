"""The benchmark's own tests, at a tiny size (``--seconds 1``).

Run from the root of the repository: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer counts that must repeat exactly at one seed.
COUNTS = (
    "evaluation.vector.batches",
    "evaluation.vector.lanes_per_batch",
    "core.scalar_jobs",
    "core.constructs",
    "evaluation.batch.run_many.calls",
    "sim.instructions",
)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return _last_json(out.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _layers(workload: str, out: Path) -> dict:
    run = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return _last_json(run.stdout)["layers"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _layers(workload, tmp_path / "a")
    second = _layers(workload, tmp_path / "b")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["sim.instructions"][0] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
