"""Every rule finds the defect it exists to stop, seeded into the real tree.

Each seed is the smallest change a rule is there to catch, made in a copy
of a real file under ``src/repro``: a comprehension in the cycle loop, an
environment read in the core model, a SQLite read outside the store's
scopes, an import back-edge.  None of these seeds breaks a test, moves a
golden or exceeds the call budget of ``tests/core/test_cycle_budget.py``
(the per-rule triage in CHANGES.md records the runs), so the rule is the
only check that catches it.  Every seed goes into one copy of the tree,
and one analysis pass over that copy serves all the tests here.

A seed's anchor is text of the current tree; when a refactor moves it,
anchor the seed in the same code's new text rather than dropping it.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.engine import AnalysisEngine
from repro.analysis.rules import RULE_REGISTRY

REPO = Path(__file__).resolve().parents[2]

#: seed id -> (rule, file under src/, [(anchor, replacement), ...]).  The
#: rule must report a line of the seed's last replacement; an anchor of
#: None makes a new file.
SEEDS = {
    # a comprehension in Processor.step, the declared cycle loop
    "HOT001-declared": ("HOT001", "repro/core/processor.py", [("""\
                dispatched = []
                for entry in ruu._order[-n:]:
                    dispatched.append(entry.seq)
""", """\
                dispatched = [entry.seq for entry in ruu._order[-n:]]
""")]),
    # ... and in a listed helper, OracleSteering._window_required, which
    # OracleSteering.cycle calls on nearly every cycle
    "HOT001-reachable": ("HOT001", "repro/core/policies.py", [("""\
        self._window_lo, self._window_hi = retired, new_hi
        return tuple(counts)
""", """\
        self._window_lo, self._window_hi = retired, new_hi
        return tuple([n for n in counts])
""")]),
    "HOT003": ("HOT003", "repro/core/processor.py", [("""\
        self.policy.cycle(ruu)
""", """\
        self._stage = f"steer@{self.cycle_count}"
        self.policy.cycle(ruu)
""")]),
    "HOT004": ("HOT004", "repro/core/processor.py", [("""\
            fabric.tick()
""", """\
            tick = lambda: fabric.tick()
            tick()
""")]),
    "HOT007": ("HOT007", "repro/core/processor.py", [("""\
        if order and order[0].state is _COMPLETED:
""", """\
        if order and order[0].state is EntryState.COMPLETED:
""")]),
    # an input of the result that the job key does not see
    "DET004": ("DET004", "repro/core/processor.py", [("""\
        if max_cycles <= 0:
            raise SimulationError("max_cycles must be positive")
""", """\
        import os

        max_cycles = int(os.environ.get("REPRO_MAX_CYCLES", max_cycles))
        if max_cycles <= 0:
            raise SimulationError("max_cycles must be positive")
""")]),
    # a read on the store's connection outside _read()/_write()
    "CON001": ("CON001", "repro/serving/store.py", [("""\
    def count(self) -> int:
        with self._read() as conn:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
""", """\
    def count(self) -> int:
        conn = self._connection()
        return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
""")]),
    # a module-level counter the API worker's threads update unlocked
    "CON002": ("CON002", "repro/serving/app.py", [("""\


class ServingApp""", """\


_ROUTE_HITS: dict[str, int] = {}


class ServingApp"""), ("""\
        route = self._route_label(path)
""", """\
        route = self._route_label(path)
        _ROUTE_HITS[route] = _ROUTE_HITS.get(route, 0) + 1
""")]),
    # a function-local import back-edge from the core to the serving rim
    "LAY001": ("LAY001", "repro/core/processor.py", [("""\
    def run(self, max_cycles: int = 1_000_000) -> SimulationResult:
""", """\
    def run(self, max_cycles: int = 1_000_000) -> SimulationResult:
        from repro.serving.store import metrics_of  # noqa: F401
""")]),
    # a top-level package the layer table does not place
    "LAY002": ("LAY002", "repro/extras/__init__.py", [(None, """\
from repro.serving.store import RunStore  # noqa: F401
""")]),
    "OBS001": ("OBS001", "repro/serving/app.py", [("""\
        elapsed = time.perf_counter() - start
""", """\
        elapsed = time.perf_counter() - start
        print(method, path, response[0])
""")]),
}


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """(findings, seed id -> (path, first line, last line)) of one pass
    over a copy of the tree with every seed applied."""
    root = tmp_path_factory.mktemp("seeded")
    shutil.copytree(
        REPO / "src" / "repro", root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for seed_id, (_, rel, edits) in SEEDS.items():
        path = root / rel
        for anchor, replacement in edits:
            if anchor is None:
                path.parent.mkdir(parents=True)
                path.write_text(replacement)
                continue
            text = path.read_text()
            assert text.count(anchor) == 1, (
                f"{seed_id}: its anchor is no longer in {rel} exactly once"
            )
            path.write_text(text.replace(anchor, replacement))
    spans = {}
    for seed_id, (_, rel, edits) in SEEDS.items():
        text = (root / rel).read_text()
        replacement = edits[-1][1]
        assert text.count(replacement) == 1, seed_id
        first = text[: text.index(replacement)].count("\n") + 1
        spans[seed_id] = (rel, first, first + replacement.count("\n") - 1)
    engine = AnalysisEngine(
        load_config(REPO / "analysis" / "layers.toml"),
        root=root, repo_root=root,
    )
    return engine.run([root / "repro"]), spans


def test_every_rule_has_a_seed():
    assert sorted({rule for rule, _, _ in SEEDS.values()}) == sorted(
        RULE_REGISTRY
    )


@pytest.mark.parametrize("seed_id", sorted(SEEDS))
def test_seeded_defect_is_found(seeded, seed_id):
    findings, spans = seeded
    rule = SEEDS[seed_id][0]
    rel, first, last = spans[seed_id]
    assert any(
        f.rule == rule and f.path == rel and first <= f.line <= last
        for f in findings
    ), f"{rule} missed its seed in {rel}:{first}-{last}"


def test_nothing_but_the_seeds_is_found(seeded):
    findings, spans = seeded
    stray = [
        f"{f.rule} {f.path}:{f.line}" for f in findings
        if not any(
            f.path == rel and first <= f.line <= last
            for rel, first, last in spans.values()
        )
    ]
    assert stray == []
