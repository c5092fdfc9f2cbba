"""The claims table: every claim holds on the fast report, every claim
can fail, and EXPERIMENTS.md carries the generated summary verbatim."""

import dataclasses
import pathlib

import pytest

from repro import cli
from repro.evaluation import claims as claims_mod
from repro.evaluation.claims import CLAIMS, check_claims, render_claims

_EXPERIMENTS_MD = pathlib.Path(__file__).parents[2] / "EXPERIMENTS.md"
_BEGIN, _END = "<!-- claims:begin -->", "<!-- claims:end -->"

_IDS = [c.id for c in CLAIMS]


def _inverted(claim):
    return dataclasses.replace(claim, predicate=lambda m: not claim.predicate(m))


def test_claim_ids_unique():
    assert len(set(_IDS)) == len(_IDS)


@pytest.mark.parametrize("claim_id", _IDS)
def test_claim_holds(fast_report, claim_id):
    (result,) = [r for r in fast_report.report.claims if r.claim.id == claim_id]
    assert result.passed, f"{claim_id}: {result.value} vs {result.claim.band}"


@pytest.mark.parametrize("claim", CLAIMS, ids=_IDS)
def test_inverted_claim_fails(fast_report, claim):
    (result,) = check_claims(fast_report.report.metrics, [_inverted(claim)])
    assert not result.passed


def test_missing_metrics_fail_without_a_value():
    for result in check_claims({}):
        assert not result.passed and result.value is None


def test_experiments_summary_is_generated(fast_report):
    """EXPERIMENTS.md's summary is the report's Claims table; after a
    deliberate change, paste the table from ``repro report`` there."""
    text = _EXPERIMENTS_MD.read_text()
    committed = text[text.index(_BEGIN) + len(_BEGIN) : text.index(_END)].strip()
    assert committed == render_claims(fast_report.report.claims)


def test_report_cli_exits_1_naming_the_failed_claim(
    fast_report, tmp_path, monkeypatch, capsys
):
    broken = _inverted(CLAIMS[0])
    monkeypatch.setattr(claims_mod, "CLAIMS", (broken,) + CLAIMS[1:])
    out = tmp_path / "report.md"
    code = cli.main(
        ["report", "-o", str(out), "--cache-dir", str(fast_report.cache_dir)]
    )
    assert code == 1
    assert "## Claims" in out.read_text()
    assert f"claim failed: {broken.id}" in capsys.readouterr().err
