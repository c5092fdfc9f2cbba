"""Call-graph construction: resolution kinds, cold edges, determinism."""

import ast
import textwrap

from repro.analysis.graph import (
    build_graph,
    canonical_graph_json,
    summarize_module,
)


def graph_of(files):
    summaries = {}
    for mp, source in files.items():
        source = textwrap.dedent(source)
        summaries[mp] = summarize_module(mp, source, ast.parse(source))
    return build_graph(summaries)


def edges_from(graph, src):
    return [(dst, kind) for s, dst, kind, _, _ in graph.edges if s == src]


class TestResolution:
    def test_same_module_function_call(self):
        graph = graph_of({
            "repro/sched/a.py": """
                def helper():
                    return 1

                def caller():
                    return helper()
            """,
        })
        edges = edges_from(graph, "repro/sched/a.py::caller")
        assert ("repro/sched/a.py::helper", "static") in edges

    def test_cross_module_import_call(self):
        graph = graph_of({
            "repro/sched/a.py": """
                from repro.sched.b import helper

                def caller():
                    return helper()
            """,
            "repro/sched/b.py": """
                def helper():
                    return 1
            """,
        })
        edges = edges_from(graph, "repro/sched/a.py::caller")
        assert ("repro/sched/b.py::helper", "static") in edges

    def test_lazy_function_level_import_resolved(self):
        """Imports inside a function body (the repo's cycle-breaking idiom)
        must still resolve — a silent miss is a silent false negative."""
        graph = graph_of({
            "repro/sched/a.py": """
                def caller():
                    from repro.sched.b import helper
                    return helper()
            """,
            "repro/sched/b.py": """
                def helper():
                    return 1
            """,
        })
        edges = edges_from(graph, "repro/sched/a.py::caller")
        assert ("repro/sched/b.py::helper", "static") in edges

    def test_self_method_call(self):
        graph = graph_of({
            "repro/sched/a.py": """
                class Kernel:
                    def step(self):
                        return self.helper()

                    def helper(self):
                        return 1
            """,
        })
        edges = edges_from(graph, "repro/sched/a.py::Kernel.step")
        assert ("repro/sched/a.py::Kernel.helper", "method") in edges

    def test_attribute_typed_call(self):
        """A call through an annotated attribute resolves to the declared
        class's method."""
        graph = graph_of({
            "repro/sched/a.py": """
                from repro.sched.b import Worker

                class Kernel:
                    def __init__(self):
                        self.worker: Worker = Worker()

                    def step(self):
                        return self.worker.run()
            """,
            "repro/sched/b.py": """
                class Worker:
                    def run(self):
                        return 1
            """,
        })
        edges = edges_from(graph, "repro/sched/a.py::Kernel.step")
        assert ("repro/sched/b.py::Worker.run", "method") in edges


class TestColdEdges:
    def test_trailing_cold_call_marks_edge(self):
        graph = graph_of({
            "repro/sched/a.py": """
                def helper():
                    return 1

                def caller():
                    return helper()  # repro: cold-call -- rare repair path
            """,
        })
        cold = [
            cold for s, _, _, _, cold in graph.edges
            if s == "repro/sched/a.py::caller"
        ]
        assert cold == ["rare repair path"]

    def test_comment_above_cold_call_skips_blank_and_comment_lines(self):
        graph = graph_of({
            "repro/sched/a.py": """
                def helper():
                    return 1

                def caller():
                    # repro: cold-call -- reason that wraps onto a
                    # second comment line before the call
                    return helper()
            """,
        })
        cold = [
            cold for s, _, _, _, cold in graph.edges
            if s == "repro/sched/a.py::caller"
        ]
        assert len(cold) == 1 and cold[0] and "wraps" in cold[0]


#: a three-file call chain plus one unrelated file.
CHAIN_FILES = {
    "repro/sched/hot.py": """
        from repro.sched.mid import middle

        class Kernel:
            def step(self):
                return middle()
    """,
    "repro/sched/mid.py": """
        from repro.isa.leaf import leaf

        def middle():
            return leaf()
    """,
    "repro/isa/leaf.py": """
        def leaf():
            return 1
    """,
    "repro/utils/other.py": """
        def unrelated():
            return 2
    """,
}


class TestDeterminism:
    def test_two_builds_byte_identical(self):
        files = dict(CHAIN_FILES)
        first = canonical_graph_json(graph_of(files))
        # build again from freshly-parsed sources, in a different insertion
        # order — the artifact must not depend on iteration order
        reordered = dict(reversed(list(files.items())))
        second = canonical_graph_json(graph_of(reordered))
        assert first == second
