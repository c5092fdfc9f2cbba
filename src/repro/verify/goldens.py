"""Golden-trace corpus: committed result records per (policy x workload).

The corpus under ``tests/goldens/`` pins the full canonical-JSON
``SimulationResult.to_dict()`` record — cycles, IPC, flushes,
reconfigurations, the final-state digest, everything — for every
catalogue policy on a small set of fast workloads.  Tier-1 CI replays
every cell and compares **structurally and exactly** (bit-identical
floats included; PR 5 made the whole catalogue deterministic, this
banks it).

Corpus discipline (see ``docs/verification.md``):

* ``SPEC.json`` records the corpus ``spec_version``, the parameter
  fingerprint and the cell list.  A drifting cell is a bug in the
  change that drifted it, **never** a reason to regenerate.
* ``repro goldens update --spec-version N`` rewrites the corpus only
  when ``N`` is strictly greater than the committed version — the bump
  is the reviewable, auditable statement "results are expected to
  change here".
* ``repro goldens diff`` prints the per-field drift without judging it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.baselines import policy_catalogue
from repro.core.params import ProcessorParams
from repro.errors import ConfigurationError
from repro.evaluation.batch import SimJob, job_key, run_many
from repro.fabric.configuration import PREDEFINED_CONFIGS
from repro.isa.program import Program
from repro.utils.canonical import canonical_dumps
from repro.verify.generator import GeneratorConfig, generate_program

__all__ = [
    "GoldenDiff",
    "SPEC_NAME",
    "GOLDEN_MAX_CYCLES",
    "golden_params",
    "golden_workloads",
    "golden_cells",
    "compute_cell_records",
    "check_corpus",
    "diff_corpus",
    "update_corpus",
    "read_spec",
]

#: name of the corpus spec file inside the corpus directory.
SPEC_NAME = "SPEC.json"

#: cycle budget per cell — matches the determinism regression suite.
GOLDEN_MAX_CYCLES = 200_000

#: sentinel rendered for a missing side of a structural diff.
_ABSENT = "<absent>"


def golden_params() -> ProcessorParams:
    """The pinned processor parameters every cell runs under."""
    return ProcessorParams(reconfig_latency=8)


def golden_workloads() -> dict[str, Program]:
    """The pinned workload set: one program per corpus row.

    Chosen to be fast (every cell finishes in well under 200k cycles)
    while covering the interesting axes: a numeric kernel, an
    integer/branchy kernel, a mixed synthetic loop, and one generated
    program with heavy flush pressure (dogfooding the fuzzer's
    generator, so its output is itself pinned).
    """
    from repro.workloads.kernels import checksum, saxpy
    from repro.workloads.synthetic import BALANCED_MIX, synthetic_program

    return {
        "saxpy-n16": saxpy(n=16).program,
        "checksum-i20": checksum(iterations=20).program,
        "mix-balanced": synthetic_program(
            BALANCED_MIX, body_len=16, iterations=5, seed=3
        ),
        "gen-flush-s7": generate_program(
            7, GeneratorConfig(flush_density=0.4)
        ),
    }


def golden_cells() -> list[tuple[str, str]]:
    """Sorted (workload, policy) pairs the corpus must cover."""
    workloads = sorted(golden_workloads())
    policies = sorted(policy_catalogue())
    return [(w, p) for w in workloads for p in policies]


def _cell_name(workload: str, policy: str) -> str:
    return f"{workload}__{policy}.json"


def _job_for(policy: str, program: Program) -> SimJob:
    params = golden_params()
    if policy.startswith("static-"):
        configs = {c.name: c for c in PREDEFINED_CONFIGS}
        cfg = configs.get(policy[len("static-") :])
        if cfg is None:
            raise ConfigurationError(f"unknown static configuration {policy!r}")
        return SimJob(
            "static", program, params, GOLDEN_MAX_CYCLES,
            kwargs={"config": cfg}, label=policy,
        )
    return SimJob(policy, program, params, GOLDEN_MAX_CYCLES, label=policy)


def params_fingerprint() -> str:
    """Content hash of the pinned cell question (params + budget).

    Folds in the batch engine's job keys for every cell, so *any*
    semantic drift in what a cell asks — parameter defaults, programs,
    the cycle budget — shows up as a spec mismatch instead of a silently
    different question.
    """
    h = hashlib.sha256()
    for workload, program in sorted(golden_workloads().items()):
        h.update(workload.encode())
        for policy in sorted(policy_catalogue()):
            h.update(policy.encode())
            h.update(job_key(_job_for(policy, program)).encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class GoldenDiff:
    """One structural difference between corpus and current behaviour."""

    cell: str
    path: str
    expected: object
    actual: object

    def __str__(self) -> str:
        return (
            f"{self.cell}: {self.path} — "
            f"golden {self.expected!r}, current {self.actual!r}"
        )


def _structural_diff(
    cell: str, expected, actual, path: str = "$"
) -> list[GoldenDiff]:
    """Exact recursive comparison; every mismatching leaf is one diff."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out: list[GoldenDiff] = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                out.append(GoldenDiff(cell, f"{path}.{key}", _ABSENT, actual[key]))
            elif key not in actual:
                out.append(GoldenDiff(cell, f"{path}.{key}", expected[key], _ABSENT))
            else:
                out.extend(
                    _structural_diff(cell, expected[key], actual[key], f"{path}.{key}")
                )
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [
                GoldenDiff(
                    cell, f"{path}.length", len(expected), len(actual)
                )
            ]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(_structural_diff(cell, e, a, f"{path}[{i}]"))
        return out
    # scalars (or mismatched shapes): strict byte-level equality of the
    # canonical encodings — 0 vs 0.0, true vs 1 and every float-bit
    # difference all count as drift
    if canonical_dumps(expected) != canonical_dumps(actual):
        return [GoldenDiff(cell, path, expected, actual)]
    return []


def compute_cell_records(workers: int = 0, progress=None) -> dict[tuple[str, str], dict]:
    """Freshly simulated canonical result record per corpus cell.

    All cells go through :func:`~repro.evaluation.batch.run_many`.
    """
    workloads = golden_workloads()
    cells = golden_cells()
    jobs = [_job_for(policy, workloads[workload]) for workload, policy in cells]
    results = run_many(jobs, workers=workers, progress=progress)
    records: dict[tuple[str, str], dict] = {}
    for cell, result in zip(cells, results):
        # canonical round-trip: the in-memory record compares exactly
        # against the parsed committed file (int keys become strings, etc.)
        records[cell] = json.loads(canonical_dumps(result.to_dict()))
    return records


def read_spec(root: str | Path) -> dict | None:
    """The parsed ``SPEC.json``, or None when the corpus doesn't exist."""
    path = Path(root) / SPEC_NAME
    try:
        text = path.read_text()
    except OSError:
        return None
    try:
        spec = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"corrupt corpus spec {path}: {exc}") from exc
    if not isinstance(spec, dict) or "spec_version" not in spec:
        raise ConfigurationError(f"corrupt corpus spec {path}: no spec_version")
    return spec


def _current_spec(spec_version: int) -> dict:
    return {
        "spec_version": spec_version,
        "params_fingerprint": params_fingerprint(),
        "max_cycles": GOLDEN_MAX_CYCLES,
        "cells": [
            {"workload": w, "policy": p, "file": _cell_name(w, p)}
            for w, p in golden_cells()
        ],
    }


def diff_corpus(
    root: str | Path, workers: int = 0, progress=None
) -> list[GoldenDiff]:
    """Every structural difference between the corpus and current code.

    Covers spec drift (fingerprint/budget/cell-list changes), missing or
    corrupt cell files, and per-field result drift.  Empty list = clean.
    """
    root = Path(root)
    spec = read_spec(root)
    if spec is None:
        return [GoldenDiff(SPEC_NAME, "$", "a committed corpus", _ABSENT)]
    diffs: list[GoldenDiff] = []
    current = _current_spec(spec["spec_version"])
    diffs.extend(_structural_diff(SPEC_NAME, spec, current))
    expected_cells = {
        (c["workload"], c["policy"]): c["file"]
        for c in spec.get("cells", [])
        if isinstance(c, dict)
    }
    records = compute_cell_records(workers=workers, progress=progress)
    for cell, record in records.items():
        name = expected_cells.get(cell, _cell_name(*cell))
        path = root / name
        try:
            committed = json.loads(path.read_text())
        except OSError:
            diffs.append(GoldenDiff(name, "$", "a committed cell file", _ABSENT))
            continue
        except ValueError as exc:
            raise ConfigurationError(f"corrupt golden cell {path}: {exc}") from exc
        diffs.extend(_structural_diff(name, committed.get("result"), record))
    return diffs


def check_corpus(
    root: str | Path, workers: int = 0, progress=None
) -> list[GoldenDiff]:
    """Alias of :func:`diff_corpus` — the tier-1 gate fails on any diff."""
    return diff_corpus(root, workers=workers, progress=progress)


def update_corpus(
    root: str | Path, spec_version: int, workers: int = 0, progress=None
) -> int:
    """(Re)generate the corpus at ``spec_version``; returns cells written.

    Refuses to run unless ``spec_version`` is strictly greater than the
    committed one — drift is never papered over silently.  Stale cell
    files from removed workloads/policies are deleted.
    """
    root = Path(root)
    spec = read_spec(root)
    if spec is not None and spec_version <= int(spec["spec_version"]):
        raise ConfigurationError(
            f"corpus is at spec_version {spec['spec_version']}; regeneration "
            f"requires an explicit bump (got {spec_version}). If results "
            "legitimately changed, bump the version and explain why in the "
            "commit; if they didn't, the drift is a bug to fix."
        )
    if spec_version < 1:
        raise ConfigurationError("spec_version must be >= 1")
    root.mkdir(parents=True, exist_ok=True)
    records = compute_cell_records(workers=workers, progress=progress)
    written = set()
    for (workload, policy), record in records.items():
        name = _cell_name(workload, policy)
        payload = {
            "spec_version": spec_version,
            "workload": workload,
            "policy": policy,
            "result": record,
        }
        (root / name).write_text(canonical_dumps(payload, pretty=True) + "\n")
        written.add(name)
    for stale in root.glob("*.json"):
        if stale.name != SPEC_NAME and stale.name not in written:
            stale.unlink()
    spec_payload = _current_spec(spec_version)
    (root / SPEC_NAME).write_text(
        canonical_dumps(spec_payload, pretty=True) + "\n"
    )
    return len(written)
