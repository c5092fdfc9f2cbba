"""The repo gate: the checked-in tree is lint-clean.

This is the same check CI's lint job runs, wired into the tier-1 suite so
a hot-path allocation, determinism leak, locking slip or layering
back-edge fails the build locally, before any workflow runs.  An inline
``# repro: allow[RULE] -- reason`` is the only way to accept a finding.
"""

from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.engine import AnalysisEngine

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_lint():
    """One whole-tree analysis, shared by this module's tests."""
    config = load_config(REPO / "analysis" / "layers.toml")
    engine = AnalysisEngine(config, root=REPO / "src", repo_root=REPO)
    findings = engine.run([REPO / "src" / "repro"])
    return engine, findings


def test_tree_has_no_findings(repo_lint):
    _, findings = repo_lint
    assert findings == [], "lint findings:\n" + "\n".join(
        f"  {f.path}:{f.line}:{f.col}: {f.rule} {f.message}" for f in findings
    )


def test_the_whole_tree_was_analysed(repo_lint):
    engine, _ = repo_lint
    # guards against the gate silently analysing an empty directory
    assert engine.files_checked > 80
