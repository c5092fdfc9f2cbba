"""Baseline machinery and the ``repro lint`` CLI: exit codes + JSON."""

import argparse
import json
import textwrap

import pytest

from repro.analysis.baseline import load_baseline, partition, save_baseline
from repro.analysis.cli import add_lint_arguments, run_lint
from repro.analysis.findings import Finding

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

    def run(*extra, baseline="none", capsys=None):
        argv = [
            str(tmp_path / "src/repro"),
            "--config", str(tmp_path / "analysis/layers.toml"),
            "--root", str(tmp_path / "src"),
            "--no-cache",
            *extra,
        ]
        if baseline is not None:
            argv += ["--baseline", baseline]
        return run_lint(parse_args(*argv))

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

    def test_baselined_finding_exits_0(self, workspace):
        ws, run = workspace
        baseline = ws / "analysis/baseline.json"
        assert run("--update-baseline", baseline=str(baseline)) == 0
        assert run(baseline=str(baseline)) == 0

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
        (CONFIG + '[process_roles]\nw = ["repro/sched/hot.py::Kernel.stpe"]\n',
         "process_roles.w: repro/sched/hot.py::Kernel.stpe"),
    ], ids=["hotzone", "process_role"])
    def test_misspelled_root_exits_2(self, workspace, capsys, config, entry):
        ws, run = workspace
        (ws / "analysis/layers.toml").write_text(config)
        assert run() == 2
        assert entry in capsys.readouterr().err
        (ws / "analysis/layers.toml").write_text(config.replace("stpe", "step"))
        assert run() == 1  # resolved: back to the HOT001 finding

    def test_unknown_rule_filter_exits_2(self, workspace):
        _, run = workspace
        assert run("--rules", "NOPE999") == 2

    def test_missing_path_exits_2(self, workspace):
        ws, run = workspace
        assert run_lint(parse_args(
            str(ws / "src/repro/ghost"),
            "--config", str(ws / "analysis/layers.toml"),
            "--root", str(ws / "src"),
            "--baseline", "none",
            "--no-cache",
        )) == 2

    def test_rule_filter_limits_findings(self, workspace):
        _, run = workspace
        # only the telemetry rule runs; the HOT001 listcomp is not checked
        assert run("--rules", "HOT006") == 0


class TestJsonReport:
    def test_json_document_shape(self, workspace, capsys):
        _, run = workspace
        assert run("--format", "json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 2
        assert doc["ok"] is False
        assert doc["counts"]["new"] == 1
        assert doc["counts"]["baselined"] == 0
        assert doc["counts"]["by_rule"] == {"HOT001": 1}
        [finding] = doc["new"]
        assert finding["rule"] == "HOT001"
        assert finding["path"].endswith("hot.py")
        assert finding["line"] == 4

    def test_baselined_findings_reported_but_ok(self, workspace, capsys):
        ws, run = workspace
        baseline = ws / "analysis/baseline.json"
        run("--update-baseline", baseline=str(baseline))
        capsys.readouterr()

        assert run("--format", "json", baseline=str(baseline)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["counts"]["new"] == 0
        assert doc["counts"]["baselined"] == 1
        assert doc["baselined"][0]["rule"] == "HOT001"

    def test_stale_baseline_entries_surface(self, workspace, capsys):
        ws, run = workspace
        baseline = ws / "analysis/baseline.json"
        run("--update-baseline", baseline=str(baseline))
        (ws / "src/repro/sched/hot.py").write_text(CLEAN)
        capsys.readouterr()

        assert run("--format", "json", baseline=str(baseline)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["stale_baseline"] == 1
        assert doc["stale_baseline"][0]["rule"] == "HOT001"

    def test_output_file_written(self, workspace, tmp_path):
        _, run = workspace
        out = tmp_path / "findings.json"
        run("--format", "json", "--output", str(out))
        assert json.loads(out.read_text())["counts"]["new"] == 1


class TestBaselineMechanics:
    def finding(self, line=4, message="m"):
        return Finding(
            rule="HOT001", path="src/repro/sched/hot.py",
            line=line, col=8, message=message,
        )

    def test_partition_new_baselined_stale(self):
        current = [self.finding(4), self.finding(9)]
        baseline = [self.finding(9), self.finding(30)]
        new, baselined, stale = partition(current, baseline)
        assert [f.line for f in new] == [4]
        assert [f.line for f in baselined] == [9]
        assert [f.line for f in stale] == [30]

    def test_fingerprint_ignores_column(self):
        a = self.finding()
        b = Finding(rule=a.rule, path=a.path, line=a.line, col=0, message=a.message)
        assert a.fingerprint() == b.fingerprint()

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [self.finding(9), self.finding(4)]
        save_baseline(path, findings)
        loaded = load_baseline(path)
        assert [f.line for f in loaded] == [4, 9]  # sorted on save

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []
        assert load_baseline(None) == []

    def test_corrupt_baseline_raises_configuration_error(self, tmp_path):
        from repro.errors import ConfigurationError

        path = tmp_path / "baseline.json"
        path.write_text('{"version": 1, "findings": [{"rule": "X"}]}')
        with pytest.raises(ConfigurationError):
            load_baseline(path)


class TestUpdateBaselinePrune:
    def test_stale_entries_pruned_printed_and_removed(self, workspace, capsys):
        ws, run = workspace
        baseline = ws / "analysis" / "baseline.json"
        assert run("--update-baseline", baseline=str(baseline)) == 0
        entries = load_baseline(baseline)
        assert entries  # the workspace tree has one HOT001 finding
        stale = Finding(
            rule="HOT001", path="src/repro/sched/gone.py", line=9, col=0,
            message="finding whose file no longer exists",
        )
        save_baseline(baseline, entries + [stale])
        capsys.readouterr()
        assert run("--update-baseline", baseline=str(baseline)) == 0
        out = capsys.readouterr().out
        assert "pruned stale baseline entry" in out
        assert stale.fingerprint() in out
        assert "(1 pruned)" in out
        after = load_baseline(baseline)
        assert stale.fingerprint() not in {f.fingerprint() for f in after}
        assert {f.fingerprint() for f in after} == {
            f.fingerprint() for f in entries
        }

    def test_no_prune_message_when_nothing_stale(self, workspace, capsys):
        ws, run = workspace
        baseline = ws / "analysis" / "baseline.json"
        assert run("--update-baseline", baseline=str(baseline)) == 0
        capsys.readouterr()
        assert run("--update-baseline", baseline=str(baseline)) == 0
        out = capsys.readouterr().out
        assert "pruned stale baseline entry" not in out
        assert "(0 pruned)" in out
