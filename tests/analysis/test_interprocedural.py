"""The graph phase: hot-zone reachability, cold calls and ENG002.

These are the regression tests for the interprocedural gap: a pass that
only sees declared hot zones stops its obligations at the file boundary.
Hot reachability closes that hole; the first two tests here pin it.
"""

import textwrap


from repro.analysis.engine import AnalysisEngine
from tests.analysis.conftest import make_test_config, rule_ids

HOT_CALLER = """
    from repro.isa.util import fanout

    class Kernel:
        def step(self):
            return fanout(self.window)
"""

LISTCOMP_HELPER = """
    def fanout(window):
        return [x + 1 for x in window]
"""


def run_tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    engine = AnalysisEngine(
        make_test_config(), root=tmp_path, repo_root=tmp_path
    )
    return engine.run([tmp_path / rel for rel in sorted(files)])


class TestHotReachability:
    def test_per_file_pass_alone_misses_undeclared_helper(self, tmp_path):
        """The gap: the helper lives outside every declared hot zone, so
        without the caller in the tree nothing is flagged."""
        findings = run_tree(tmp_path, {"repro/isa/util.py": LISTCOMP_HELPER})
        assert findings == []

    def test_graph_pass_catches_helper_reached_from_hot_zone(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/sched/hot.py": HOT_CALLER,
            "repro/isa/util.py": LISTCOMP_HELPER,
        })
        hot = [f for f in findings if f.rule == "HOT001"]
        assert len(hot) == 1
        assert hot[0].path == "repro/isa/util.py"
        assert "reachable from hot zone" in hot[0].message
        assert "Kernel.step" in hot[0].message
        assert hot[0].chain  # --explain has a call path to print

    def test_cold_call_annotation_stops_propagation(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/sched/hot.py": """
                from repro.isa.util import fanout

                class Kernel:
                    def step(self):
                        # repro: cold-call -- mispredict repair, event-bounded
                        return fanout(self.window)
            """,
            "repro/isa/util.py": LISTCOMP_HELPER,
        })
        assert "HOT001" not in rule_ids(findings)

    def test_cold_call_without_reason_is_eng002_and_still_hot(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/sched/hot.py": """
                from repro.isa.util import fanout

                class Kernel:
                    def step(self):
                        return fanout(self.window)  # repro: cold-call
            """,
            "repro/isa/util.py": LISTCOMP_HELPER,
        })
        ids = rule_ids(findings)
        assert "ENG002" in ids  # malformed annotation is reported ...
        assert "HOT001" in ids  # ... and does NOT silence the hot pass

    def test_declared_hot_zone_not_double_reported(self, tmp_path):
        """A declared hot function is a root of the one graph pass and is
        reported once."""
        findings = run_tree(tmp_path, {
            "repro/sched/hot.py": """
                class Kernel:
                    def step(self):
                        return [x for x in self.window]
            """,
        })
        assert rule_ids(findings) == ["HOT001"]


class TestRuleFilter:
    def test_graph_rules_respect_rules_filter(self, tmp_path):
        """--rules without any graph id skips the graph phase entirely."""
        from repro.analysis.rules import RULE_REGISTRY

        files = {
            "repro/sched/hot.py": HOT_CALLER,
            "repro/isa/util.py": LISTCOMP_HELPER,
        }
        for rel, source in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        engine = AnalysisEngine(
            make_test_config(), root=tmp_path, repo_root=tmp_path,
            rules=[RULE_REGISTRY["LAY001"]],
        )
        findings = engine.run([tmp_path / rel for rel in sorted(files)])
        assert findings == []
