"""The ``repro lint`` CLI: exit codes, the rule filter and the JSON report."""

import argparse
import json
import textwrap

import pytest

from repro.analysis.cli import add_lint_arguments, run_lint

HOT = textwrap.dedent("""
    class Kernel:
        def step(self):
            return [x for x in self.window]
""")

HOT_SUPPRESSED = textwrap.dedent("""
    class Kernel:
        def step(self):
            return [x for x in self.window]  # repro: allow[HOT001] -- api
""")

CLEAN = textwrap.dedent("""
    class Kernel:
        def step(self):
            return self.window
""")

CONFIG = textwrap.dedent("""
    package = "repro"

    [layers]
    errors = []
    sched = ["errors"]

    [hotzones]
    "repro/sched/hot.py" = ["Kernel.step"]

    [scopes]
    determinism = ["repro/sched"]
    concurrency = []
    config_modules = []
""")


def parse_args(*argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return parser.parse_args(list(argv))


@pytest.fixture()
def workspace(tmp_path):
    """A tiny repo: src tree + config; returns a run(...) helper."""
    (tmp_path / "src/repro/sched").mkdir(parents=True)
    (tmp_path / "analysis").mkdir()
    (tmp_path / "analysis/layers.toml").write_text(CONFIG)
    (tmp_path / "src/repro/sched/hot.py").write_text(HOT)

    def run(*extra):
        return run_lint(parse_args(
            str(tmp_path / "src/repro"),
            "--config", str(tmp_path / "analysis/layers.toml"),
            "--root", str(tmp_path / "src"),
            *extra,
        ))

    return tmp_path, run


class TestExitCodes:
    def test_new_finding_exits_1(self, workspace):
        _, run = workspace
        assert run() == 1

    def test_clean_tree_exits_0(self, workspace):
        ws, run = workspace
        (ws / "src/repro/sched/hot.py").write_text(CLEAN)
        assert run() == 0

    def test_suppressed_finding_exits_0(self, workspace):
        ws, run = workspace
        (ws / "src/repro/sched/hot.py").write_text(HOT_SUPPRESSED)
        assert run() == 0

    def test_missing_config_exits_2(self, workspace):
        ws, run = workspace
        (ws / "analysis/layers.toml").unlink()
        assert run() == 2

    def test_invalid_config_exits_2(self, workspace):
        ws, run = workspace
        (ws / "analysis/layers.toml").write_text(
            CONFIG.replace('sched = ["errors"]', 'sched = ["ghost"]')
        )
        assert run() == 2

    @pytest.mark.parametrize("config, entry", [
        (CONFIG.replace('["Kernel.step"]', '["Kernel.stpe"]'),
         "hotzones: repro/sched/hot.py::Kernel.stpe"),
    ], ids=["hotzone"])
    def test_misspelled_root_exits_2(self, workspace, capsys, config, entry):
        ws, run = workspace
        (ws / "analysis/layers.toml").write_text(config)
        assert run() == 2
        assert entry in capsys.readouterr().err
        (ws / "analysis/layers.toml").write_text(config.replace("stpe", "step"))
        assert run() == 1  # resolved: back to the HOT001 finding

    @pytest.mark.parametrize("config, key", [
        (CONFIG + '\n[process_roles]\n"repro/sched/hot.py" = "worker"\n',
         "'process_roles'"),
        (CONFIG.replace("concurrency = []", 'concurrency = []\ncanonical_json = []'),
         "'canonical_json'"),
    ], ids=["process_roles", "canonical_json"])
    def test_unknown_config_key_exits_2(self, workspace, capsys, config, key):
        """A table or ``[scopes]`` key the schema does not know is an
        error, not silently ignored."""
        ws, run = workspace
        (ws / "analysis/layers.toml").write_text(config)
        assert run() == 2
        assert key in capsys.readouterr().err

    def test_unknown_rule_filter_exits_2(self, workspace):
        _, run = workspace
        assert run("--rules", "NOPE999") == 2

    def test_missing_path_exits_2(self, workspace):
        ws, run = workspace
        assert run_lint(parse_args(
            str(ws / "src/repro/ghost"),
            "--config", str(ws / "analysis/layers.toml"),
            "--root", str(ws / "src"),
        )) == 2

    def test_star_is_not_a_wildcard(self, workspace, capsys):
        """Every listed hot function is named: ``*`` names no function."""
        ws, run = workspace
        (ws / "analysis/layers.toml").write_text(
            CONFIG.replace('["Kernel.step"]', '["*"]')
        )
        assert run() == 2
        assert "hotzones: repro/sched/hot.py::*" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        "--no-cache", "--cache-dir=x", "--changed", "--changed-base=main",
        "--baseline=x", "--update-baseline", "--explain-new-out=x",
        "--graph-out=x", "--explain=x", "--explain-all-out=x",
    ])
    def test_removed_options_are_rejected(self, option):
        # one uncached pass over a listed hot set, inline suppressions
        # only: no cache, no changed-files mode, no findings baseline, no
        # call graph to write or explain
        with pytest.raises(SystemExit):
            parse_args(option)

    def test_rule_filter_limits_findings(self, workspace):
        _, run = workspace
        # only the layering rule runs; the HOT001 listcomp is not checked
        assert run("--rules", "LAY001") == 0


class TestJsonReport:
    def test_json_document_shape(self, workspace, capsys):
        _, run = workspace
        assert run("--format", "json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 3
        assert doc["ok"] is False
        assert doc["counts"] == {"total": 1, "by_rule": {"HOT001": 1}}
        [finding] = doc["findings"]
        assert finding["rule"] == "HOT001"
        assert finding["path"].endswith("hot.py")
        assert finding["line"] == 4

    def test_output_file_written(self, workspace, tmp_path):
        _, run = workspace
        out = tmp_path / "findings.json"
        run("--format", "json", "--output", str(out))
        assert json.loads(out.read_text())["counts"]["total"] == 1
