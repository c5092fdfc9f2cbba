"""The repo gate: the checked-in tree is lint-clean.

This is the same check CI's lint job runs, wired into the tier-1 suite so
a hot-path allocation, determinism leak, locking slip or layering
back-edge fails the build locally, before any workflow runs.  An inline
``# repro: allow[RULE] -- reason`` is the only way to accept a finding.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.engine import AnalysisEngine
from repro.analysis.rules import RULE_REGISTRY

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


def test_documented_rules_match_the_registry():
    # every registered rule has one row in the rule tables of
    # docs/static-analysis.md, and every row names a registered rule
    doc = (REPO / "docs" / "static-analysis.md").read_text()
    rows = re.findall(r"^\| `([A-Z]{3}\d{3})` \|", doc, flags=re.MULTILINE)
    assert len(rows) == len(set(rows)), "a rule has two rows"
    assert sorted(rows) == sorted(RULE_REGISTRY)
