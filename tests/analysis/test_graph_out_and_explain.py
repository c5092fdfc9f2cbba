"""Whole-tree artifacts: the ``--graph-out`` call graph and ``--explain``
call chains over a three-file hot chain."""

import argparse
import textwrap

import pytest

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.analysis.engine import AnalysisEngine
from tests.analysis.conftest import make_test_config

TREE = {
    "repro/sched/hot.py": """
        from repro.sched.mid import middle

        class Kernel:
            def step(self):
                return middle(self.window)
    """,
    "repro/sched/mid.py": """
        from repro.isa.leaf import leaf

        def middle(window):
            return leaf(window)
    """,
    "repro/isa/leaf.py": """
        def leaf(window):
            total = 0
            for x in window:
                total += x
            return total
    """,
    "repro/utils/other.py": """
        def unrelated():
            return 2
    """,
}


def write_tree(tmp_path, files=TREE):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return [tmp_path / rel for rel in sorted(files)]


def make_engine(tmp_path):
    return AnalysisEngine(make_test_config(), root=tmp_path, repo_root=tmp_path)


class TestGraphArtifact:
    def test_graph_json_deterministic_across_engines(self, tmp_path):
        paths = write_tree(tmp_path)
        first = make_engine(tmp_path)
        first.run(paths)
        second = make_engine(tmp_path)
        second.run(paths)
        assert first.graph_json() == second.graph_json()


def parse_args(*argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return parser.parse_args(list(argv))


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    """src tree + config, cwd pinned inside it."""
    write_tree(tmp_path)
    (tmp_path / "analysis").mkdir()
    (tmp_path / "analysis/layers.toml").write_text(textwrap.dedent("""
        package = "repro"

        [layers]
        errors = []
        isa = ["errors"]
        sched = ["errors", "isa"]
        utils = []

        [hotzones]
        "repro/sched/hot.py" = ["Kernel.step"]

        [scopes]
        determinism = ["repro/sched"]
        concurrency = []
        config_modules = []
    """))
    monkeypatch.chdir(tmp_path)

    def run(*extra):
        return run_lint(parse_args(
            str(tmp_path / "repro"),
            "--config", str(tmp_path / "analysis/layers.toml"),
            "--root", str(tmp_path),
            *extra,
        ))

    return tmp_path, run


class TestGraphOutAndExplain:
    def test_graph_out_written_and_stable(self, workspace):
        ws, run = workspace
        out_a = ws / "graph-a.json"
        out_b = ws / "graph-b.json"
        run("--graph-out", str(out_a))
        run("--graph-out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
        assert b'"edges"' in out_a.read_bytes()

    def test_explain_prints_call_chain(self, workspace, capsys):
        ws, run = workspace
        (ws / "repro/isa/leaf.py").write_text(textwrap.dedent("""
            def leaf(window):
                return [x for x in window]
        """))
        assert run() == 1
        finding = capsys.readouterr().out
        assert "repro/isa/leaf.py" in finding
        code = run("--explain", "repro/isa/leaf.py:3:HOT001")
        out = capsys.readouterr().out
        assert code == 0
        assert "call chain:" in out
        assert "Kernel.step" in out
        assert "middle" in out

    def test_explain_unknown_target_exits_2(self, workspace, capsys):
        _, run = workspace
        assert run("--explain", "repro/isa/leaf.py:999:HOT001") == 2

    def test_explain_all_out_without_findings(self, workspace):
        ws, run = workspace
        run("--explain-all-out", str(ws / "chains.txt"))
        assert (ws / "chains.txt").read_text() == "no findings\n"

    def test_explain_all_out_lists_every_finding(self, workspace):
        ws, run = workspace
        (ws / "repro/isa/leaf.py").write_text(textwrap.dedent("""
            def leaf(window):
                return [x for x in window]
        """))
        assert run("--explain-all-out", str(ws / "chains.txt")) == 1
        chains = (ws / "chains.txt").read_text()
        assert chains.startswith("repro/isa/leaf.py:3:")
        assert "call chain:" in chains and "Kernel.step" in chains
