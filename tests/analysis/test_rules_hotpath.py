"""HOT rule family: per-cycle work in declared hot zones."""

import textwrap

from tests.analysis.conftest import rule_ids


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

    def test_wildcard_hotzone_covers_every_function(self, lint_source):
        findings = lint_source(
            src("""
                def anything():
                    return {k: v for k, v in pairs}
            """),
            path="repro/sched/allhot.py",
        )
        assert rule_ids(findings) == ["HOT001"]

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
