"""One fast reproduction report shared by every test that reads it."""

from types import SimpleNamespace

import pytest

from repro.evaluation.harness import generate_report


@pytest.fixture(scope="session")
def fast_report(tmp_path_factory):
    """The fast-scale report, its progress notes and its on-disk cache
    (a second report over that cache runs no simulation)."""
    cache_dir = tmp_path_factory.mktemp("report-cache")
    notes: list[str] = []
    report = generate_report(
        fast=True, progress=notes.append, cache_dir=str(cache_dir)
    )
    return SimpleNamespace(report=report, notes=notes, cache_dir=cache_dir)
