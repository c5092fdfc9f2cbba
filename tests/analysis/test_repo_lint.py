"""The repo gate: the checked-in tree is lint-clean against its baseline.

This is the same check CI's lint job runs, wired into the tier-1 suite so
a hot-path allocation, determinism leak, locking slip or layering
back-edge fails the build locally, before any workflow runs.
"""

from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline, partition
from repro.analysis.config import load_config
from repro.analysis.engine import AnalysisEngine

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_lint():
    """One uncached whole-tree analysis, shared by this module's tests."""
    config = load_config(REPO / "analysis" / "layers.toml")
    engine = AnalysisEngine(
        config, root=REPO / "src", repo_root=REPO, cache_path=None
    )
    findings = engine.run([REPO / "src" / "repro"])
    baseline = load_baseline(REPO / "analysis" / "baseline.json")
    return engine, findings, baseline


def test_tree_has_no_findings_outside_the_baseline(repo_lint):
    _, findings, baseline = repo_lint
    new, _, _ = partition(findings, baseline)
    assert new == [], "new lint findings:\n" + "\n".join(
        f"  {f.path}:{f.line}:{f.col}: {f.rule} {f.message}" for f in new
    )


def test_baseline_carries_no_stale_entries(repo_lint):
    _, findings, baseline = repo_lint
    _, _, stale = partition(findings, baseline)
    assert stale == [], (
        "stale baseline entries (ratchet down with "
        "'repro lint --update-baseline'):\n"
        + "\n".join(f"  {f.fingerprint()}" for f in stale)
    )


def test_the_whole_tree_was_analysed(repo_lint):
    engine, _, _ = repo_lint
    # guards against the gate silently analysing an empty directory
    assert engine.files_checked > 80
