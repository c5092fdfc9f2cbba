"""Shared harness for the static-analysis tests.

``lint_tree`` writes snippet files into a throwaway package tree and runs
the real :class:`AnalysisEngine` over them (suppressions and all),
against a small self-contained configuration that mirrors the shape of the
checked-in ``analysis/layers.toml``.
"""

from pathlib import Path

import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import AnalysisEngine


def make_test_config() -> AnalysisConfig:
    """The test configuration: the checked-in table's shape in miniature."""
    return AnalysisConfig(
        package="repro",
        layers={
            "cli": ("errors", "serving", "telemetry"),
            "errors": (),
            "isa": ("errors",),
            "sched": ("errors", "isa"),
            "serving": ("errors", "isa", "telemetry"),
            "telemetry": ("errors", "isa", "utils"),
            "utils": (),
        },
        hotzones={
            "repro/sched/hot.py": ("Kernel.step", "Kernel.tick", "helper"),
            "repro/sched/allhot.py": ("*",),
        },
        determinism_scope=("repro/sched", "repro/isa", "repro/utils"),
        concurrency_scope=("repro/serving", "repro/evaluation/batch.py"),
        config_modules=("repro/utils/env.py",),
        event_log_modules=("repro/telemetry/events.py",),
    )


@pytest.fixture()
def test_config():
    return make_test_config()


@pytest.fixture()
def lint_tree(tmp_path, test_config):
    """lint_tree({"repro/sched/hot.py": source, ...}) -> sorted findings."""

    def run(files: dict[str, str], rules=None):
        for rel, source in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        engine = AnalysisEngine(
            test_config,
            root=tmp_path,
            repo_root=tmp_path,
            rules=rules,
        )
        return engine.run([tmp_path / rel for rel in sorted(files)])

    return run


@pytest.fixture()
def lint_source(lint_tree):
    """lint_source(source) -> findings for one file at repro/sched/hot.py."""

    def run(source: str, path: str = "repro/sched/hot.py"):
        return lint_tree({path: source})

    return run


def rule_ids(findings) -> list[str]:
    return [f.rule for f in findings]
