"""Whole-program passes: hot reachability, DET006/007, CON006/007, ENG002.

These are the regression tests for the interprocedural gap: a per-file
pass only sees declared hot zones, so obligations used to stop at the
file boundary and determinism taint at the expression.  The graph phase
closes both holes; the first two tests here pin that closure.
"""

import textwrap

import pytest

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


def run_tree(tmp_path, files, config=None):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    engine = AnalysisEngine(
        config or make_test_config(), root=tmp_path, repo_root=tmp_path
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
        """Functions inside a declared zone belong to the per-file rules;
        the graph pass must not repeat their findings."""
        findings = run_tree(tmp_path, {
            "repro/sched/hot.py": """
                class Kernel:
                    def step(self):
                        return [x for x in self.window]
            """,
        })
        assert rule_ids(findings) == ["HOT001"]


class TestDeterminismTaint:
    def test_laundered_wall_clock_reaches_state_det006(self, tmp_path):
        """time.time() laundered through a helper's return value and stored
        into simulation state — invisible per-file, caught by taint."""
        findings = run_tree(tmp_path, {
            "repro/sched/sim.py": """
                from repro.sched.stamp import fresh_stamp

                class Sim:
                    def start(self):
                        self.t0 = fresh_stamp()
            """,
            "repro/sched/stamp.py": """
                import time

                def fresh_stamp():
                    return time.time()
            """,
        })
        det = [f for f in findings if f.rule == "DET006"]
        assert len(det) == 1
        assert det[0].path == "repro/sched/sim.py"
        assert "self.t0" in det[0].message
        assert "time.time" in det[0].message

    def test_tainted_value_reaching_canonical_sink_det007(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/utils/canonical.py": """
                import json

                def canonical_dumps(obj):
                    return json.dumps(obj, sort_keys=True)
            """,
            "repro/sched/golden.py": """
                import time

                from repro.utils.canonical import canonical_dumps

                def snapshot(state):
                    stamp = time.time()
                    return canonical_dumps({"state": state, "at": stamp})
            """,
        })
        det = [f for f in findings if f.rule == "DET007"]
        assert len(det) == 1
        assert det[0].path == "repro/sched/golden.py"

    def test_seeded_rng_not_tainted(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/sched/sim.py": """
                import random

                class Sim:
                    def __init__(self, seed):
                        self.rng = random.Random(seed)

                    def start(self):
                        self.jitter = self.rng.random()
            """,
        })
        assert "DET006" not in rule_ids(findings)


ROLES = {
    "supervisor": ("repro/serving/app.py::boot",),
    "api_worker": ("repro/serving/app.py::handle",),
}


def roles_config(**overrides):
    return make_test_config(process_roles=dict(ROLES), **overrides)


class TestProcessRoles:
    def test_cross_domain_module_state_con006(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/serving/app.py": """
                _JOBS = {}

                def boot():
                    _JOBS["ready"] = True

                def handle(request):
                    return _JOBS.get("ready")
            """,
        }, config=roles_config())
        con = [f for f in findings if f.rule == "CON006"]
        assert len(con) == 1
        assert "_JOBS" in con[0].message

    def test_unattributed_mutation_con007(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/serving/app.py": """
                _JOBS = {}

                def boot():
                    return None

                def handle(request):
                    return None

                def stray():
                    _JOBS["x"] = 1
            """,
        }, config=roles_config())
        con = [f for f in findings if f.rule == "CON007"]
        assert len(con) == 1
        assert "stray" in con[0].message

    def test_empty_roles_table_disables_pass(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/serving/app.py": """
                _JOBS = {}

                def stray():
                    _JOBS["x"] = 1
            """,
        })
        assert not {"CON006", "CON007"} & set(rule_ids(findings))

    def test_queue_binding_exempt(self, tmp_path):
        findings = run_tree(tmp_path, {
            "repro/serving/app.py": """
                from queue import Queue

                _INBOX = Queue()

                def boot():
                    _INBOX.put("ready")

                def handle(request):
                    return _INBOX.get()
            """,
        }, config=roles_config())
        assert not {"CON006", "CON007"} & set(rule_ids(findings))


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
