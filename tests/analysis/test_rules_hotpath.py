"""HOT rule family: per-cycle work in the listed hot functions."""

import textwrap

from repro.analysis.engine import AnalysisEngine
from repro.analysis.rules import RULE_REGISTRY
from tests.analysis.conftest import make_test_config, rule_ids


def src(body: str) -> str:
    return textwrap.dedent(body)


class TestHotAllocations:
    def test_comprehension_in_hot_function_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    return [x * 2 for x in self.window]
        """))
        assert rule_ids(findings) == ["HOT001"]
        assert "list comprehension in hot zone 'Kernel.step'" in (
            findings[0].message
        )

    def test_generator_expression_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    counts = dict(self.live_counts())
                    return sum(x for x in counts)
        """))
        assert rule_ids(findings) == ["HOT001"]

    def test_fstring_and_lambda_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def tick(self):
                    label = f"cycle {self.cycle}"
                    key = lambda e: e.seq
                    return label, key
        """))
        assert sorted(rule_ids(findings)) == ["HOT003", "HOT004"]

    def test_cold_function_in_same_file_not_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def snapshot(self):
                    return [x * 2 for x in self.window]

                def report(self):
                    return f"retired {dict(self.counts)}"
        """))
        assert findings == []

    def test_raise_paths_are_exempt(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    if self.full:
                        raise RuntimeError(f"window full: {list(self.rows)}")
                    return self.grant()
        """))
        assert findings == []

    def test_only_the_listed_function_is_flagged(self, lint_source):
        """The list is the whole hot set: the same comprehension in an
        unlisted function is not flagged, even when a listed one calls
        it (the profile, not a call graph, says what is per-cycle)."""
        findings = lint_source(src("""
            def helper(window):
                return [x + 1 for x in window]

            def fanout(window):
                return [x + 1 for x in window]

            class Kernel:
                def step(self):
                    return fanout(self.window)
        """))
        assert rule_ids(findings) == ["HOT001"]
        assert findings[0].line == 3
        assert "hot zone 'helper'" in findings[0].message

    def test_nested_def_and_lambda_bodies_skipped(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    def later():
                        return [x for x in self.window]
                    key = lambda e: [y for y in e]
                    return later, key
        """))
        # the lambda is created per call; its body is not run by step
        assert rule_ids(findings) == ["HOT004"]

    def test_non_hotzone_file_not_flagged(self, lint_source):
        findings = lint_source(
            src("""
                class Kernel:
                    def step(self):
                        return [x for x in self.window]
            """),
            path="repro/sched/cold.py",
        )
        assert findings == []


def test_rule_filter_limits_the_hot_rules(tmp_path):
    """--rules without a HOT id runs no hot-path rule."""
    target = tmp_path / "repro/sched/hot.py"
    target.parent.mkdir(parents=True)
    target.write_text(src("""
        class Kernel:
            def step(self):
                return [x for x in self.window]
    """))
    engine = AnalysisEngine(
        make_test_config(), root=tmp_path, repo_root=tmp_path,
        rules=[RULE_REGISTRY["LAY001"]],
    )
    assert engine.run([target]) == []
