"""One-shot report generator: every artifact and experiment in one document.

``generate_report()`` regenerates all paper artifacts, runs the
quantitative experiments (at a configurable scale) and checks every claim
of :mod:`repro.evaluation.claims` against their metrics — the executable
counterpart of EXPERIMENTS.md.  Exposed on the command line as
``python -m repro report``, which exits 1 when a claim fails.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.evaluation import artifacts
from repro.evaluation.batch import ResultCache, run_many
from repro.evaluation.claims import ClaimResult, check_claims, render_claims
from repro.evaluation.experiments import EXPERIMENTS, TELEMETRY
from repro.fabric.configuration import PREDEFINED_CONFIGS

__all__ = ["Report", "generate_report"]


@dataclass
class Report:
    """The rendered report plus what it measured and concluded."""

    text: str
    #: ``{experiment: flat metric dict}``, as recorded in the run store.
    metrics: dict[str, dict[str, float]]
    claims: list[ClaimResult]

    @property
    def failed(self) -> list[ClaimResult]:
        return [r for r in self.claims if not r.passed]


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(
    fast: bool = True,
    progress: Callable[[str], None] | None = None,
    workers: int = 0,
    use_cache: bool = True,
    cache_dir: str | None = None,
    store: Any | None = None,
    cache_max_bytes: int | None = None,
    telemetry: bool = False,
) -> Report:
    """Regenerate everything and check every claim.  ``fast`` runs each
    experiment of :data:`~repro.evaluation.experiments.EXPERIMENTS` at
    scale 1, on the inputs its claims were calibrated on (about 5 s
    single-threaded); the full scale (2) doubles the workloads of the
    experiments that size theirs by it.

    ``workers > 1`` fans each experiment's simulations out over a process
    pool; ``use_cache`` shares one content-keyed result cache across the
    experiments, so simulations asked for twice (e.g. the same
    steering/workload pair in E-IPC and E-CEM) run once.  ``cache_dir``
    additionally spills the cache to disk, so identical simulations are
    answered from previous report runs (the CI persists this directory
    across workflow runs).

    ``store`` (a :class:`repro.serving.store.RunStore`) registers every
    experiment's summary metrics — and, through the cache hook, every
    individual simulation — as queryable runs for ``repro serve``.
    ``cache_max_bytes`` LRU-prunes the on-disk cache after the report so
    ``.report-cache`` stays bounded.

    ``telemetry`` adds an E-TEL section: one instrumented steering run
    (the ``steering-telemetry`` batch factory) whose per-cycle
    time-series and trace spans persist into the cache/store, so
    ``repro serve`` can answer ``/api/runs/<id>/timeseries`` for it and
    the dashboard telemetry panel has something to draw.
    """

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    measured: dict[str, dict[str, float]] = {}

    def record(experiment: str, metrics: dict[str, float]) -> None:
        """Keep an experiment's metrics for the claims; register them as a
        summary run in the store."""
        measured[experiment] = metrics
        if store is not None:
            question = hashlib.sha256(
                f"{experiment}|fast={fast}".encode()
            ).hexdigest()
            store.record_run(
                experiment, question, metrics, label="fast" if fast else "full"
            )

    cache = (
        ResultCache(cache_dir, store=store)
        if (use_cache or cache_dir)
        else None
    )
    scale = 1 if fast else 2

    parts = ["# Reproduction report (generated)\n"]

    note("artifacts: tables")
    parts.append(_section("Table 1 — steering configurations", artifacts.table1()))
    record("T1", {f"slots/{c.name}": c.slot_usage for c in PREDEFINED_CONFIGS})
    parts.append(_section("Table 2 — resource encodings", artifacts.table2()))
    note("artifacts: figures")
    parts.append(_section("Figure 1 — architecture inventory", artifacts.figure1_inventory()))
    parts.append(_section("Figure 2 — selection unit", artifacts.figure2_selection_demo()))
    study = artifacts.figure3_cem_study(samples=2000 * scale)
    parts.append(
        _section(
            "Figure 3 — CEM approximation",
            f"{study.shift_table}\n\n{study.table}\n\n"
            f"max term error {study.max_term_error:.3f}, "
            f"mean {study.mean_term_error:.3f}, "
            f"selection agreement {study.selection_agreement:.3f}",
        )
    )
    record("F3", {
        "max_term_error": study.max_term_error,
        "mean_term_error": study.mean_term_error,
        "selection_agreement": study.selection_agreement,
    })
    parts.append(_section("Figures 4-6 — wake-up array example", artifacts.figure456_wakeup_example()))
    parts.append(
        _section(
            "Figure 7 — availability circuit",
            artifacts.figure7_availability_check(samples=500 * scale),
        )
    )
    cases, mismatches = artifacts.eq1_check(samples=500 * scale)
    record("F7", {"cases": cases, "mismatches": mismatches})

    run = partial(run_many, workers=workers, cache=cache)
    for experiment, measure in EXPERIMENTS + ((TELEMETRY,) if telemetry else ()):
        note(f"experiment: {experiment}")
        title, body, metrics = measure(scale, run)
        parts.append(_section(f"{experiment} — {title}", body))
        record(experiment, metrics)

    if cache is not None and cache.directory is not None and cache_max_bytes:
        pruned = cache.prune(max_bytes=cache_max_bytes)
        note(
            f"cache GC: removed {pruned['removed']} blobs "
            f"({pruned['bytes_freed']} bytes)"
        )

    claims = check_claims(measured)
    passed = sum(r.passed for r in claims)
    parts.append(
        f"## Claims\n\n{passed}/{len(claims)} claims hold "
        f"({'fast' if fast else 'full'} scale).\n\n{render_claims(claims)}\n"
    )
    return Report("\n".join(parts), measured, claims)
