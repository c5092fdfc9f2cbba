"""Engine behaviour: one parse per file, parse errors, determinism."""

import ast
import io
import textwrap
import tokenize

from repro.analysis.engine import PARSE_RULE_ID, AnalysisEngine
from tests.analysis.conftest import make_test_config

HOT = textwrap.dedent("""
    class Kernel:
        def step(self):
            return [x for x in self.window]
""")

CLEAN = "X = 1\n"


def write_tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return [tmp_path / rel for rel in sorted(files)]


def make_engine(tmp_path, config=None):
    return AnalysisEngine(
        config or make_test_config(), root=tmp_path, repo_root=tmp_path
    )


class TestOnePass:
    def test_each_file_parsed_and_tokenized_once(self, tmp_path, monkeypatch):
        # a hot file, a file with a suppression and a cold-call note, a
        # clean file, and one outside the target set that the call graph
        # still summarises
        paths = write_tree(tmp_path, {
            "repro/sched/hot.py": HOT,
            "repro/sched/noted.py": textwrap.dedent("""
                def helper():  # repro: allow[DET004] -- fixture
                    return run()  # repro: cold-call -- fixture
            """),
            "repro/isa/ok.py": CLEAN,
        })
        write_tree(tmp_path, {"repro/utils/untargeted.py": CLEAN})
        counts = {"parse": [], "tokenize": []}
        real_parse, real_tokens = ast.parse, tokenize.generate_tokens

        def parse(source, filename="<unknown>", *args, **kwargs):
            counts["parse"].append(filename)
            return real_parse(source, filename, *args, **kwargs)

        def generate_tokens(readline):
            source = "".join(iter(readline, ""))
            counts["tokenize"].append(source)
            return real_tokens(io.StringIO(source).readline)

        monkeypatch.setattr(ast, "parse", parse)
        monkeypatch.setattr(tokenize, "generate_tokens", generate_tokens)
        findings = make_engine(tmp_path).run(paths)
        monkeypatch.undo()

        assert [f.rule for f in findings] == ["HOT001"]
        files = sorted(str(p) for p in tmp_path.rglob("*.py"))
        assert sorted(counts["parse"]) == files
        # only noted.py contains ``repro:``; the other three are not scanned
        assert len(files) == 4
        [scanned] = counts["tokenize"]
        assert "allow[DET004]" in scanned


class TestParseErrors:
    def test_syntax_error_becomes_finding_not_crash(self, tmp_path):
        paths = write_tree(
            tmp_path,
            {
                "repro/isa/broken.py": "def f(:\n",
                "repro/sched/hot.py": HOT,
            },
        )
        findings = make_engine(tmp_path).run(paths)
        rules = [f.rule for f in findings]
        assert PARSE_RULE_ID in rules  # the broken file is reported...
        assert "HOT001" in rules  # ...and the rest is still analysed


class TestDeterminism:
    def test_findings_sorted_and_stable(self, tmp_path):
        paths = write_tree(
            tmp_path,
            {
                "repro/sched/hot.py": HOT,
                "repro/sched/zz.py": "import repro.serving\n",
            },
        )
        a = make_engine(tmp_path).run(paths)
        b = make_engine(tmp_path).run(list(reversed(paths)))
        assert [f.to_dict() for f in a] == [f.to_dict() for f in b]
        assert a == sorted(a, key=lambda f: f.sort_key())
