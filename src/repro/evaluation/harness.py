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
from typing import Any

from repro.core.params import ProcessorParams
from repro.evaluation import artifacts
from repro.evaluation.batch import ResultCache, SimJob, run_many
from repro.evaluation.claims import ClaimResult, check_claims, render_claims
from repro.evaluation.experiments import (
    cem_metrics,
    circuit_cost_metrics,
    latency_sweep_metrics,
    queue_depth_metrics,
    run_basis_design,
    run_cem_ablation,
    run_circuit_cost_report,
    run_demand_steering,
    run_frontend_ablation,
    run_ipc_comparison,
    run_orthogonality_study,
    run_phase_adaptation,
    run_pipelined_scheduling,
    run_queue_depth_sweep,
    run_reconfig_flows,
    run_reconfig_latency_sweep,
    run_stall_attribution,
    table_metrics,
)
from repro.evaluation.report import render_table
from repro.fabric.configuration import PREDEFINED_CONFIGS
from repro.workloads.kernels import (
    all_kernels,
    checksum,
    dot_product,
    fir_filter,
    memcpy,
    newton_sqrt,
    saxpy,
    sum_reduction,
)
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX

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
    experiment on the inputs its claims were calibrated on (about 10 s
    single-threaded); the full scale doubles every workload.

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
    run = {"workers": workers, "cache": cache}
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

    params = ProcessorParams(reconfig_latency=8)
    kernels = [
        ("checksum", checksum(iterations=300 * scale).program),
        ("sum_reduction", sum_reduction(n=96 * scale).program),
        ("dot_product", dot_product(n=64 * scale).program),
        ("memcpy", memcpy(n=120 * scale).program),
        ("saxpy", saxpy(n=64 * scale).program),
        ("fir_filter", fir_filter(n=48 * scale).program),
        ("newton_sqrt", newton_sqrt(iterations=24 * scale).program),
    ]

    def pick(*names: str) -> list:
        return [(name, program) for name, program in kernels if name in names]

    def phased(seed: int, *mixes, length: int = 40):
        return phased_program([(mix, length * scale) for mix in mixes], seed=seed)

    def table(experiment, title, headers, rows, metrics=None) -> None:
        """Append a results table; record ``metrics`` (default: the table's
        numeric cells, see :func:`table_metrics`)."""
        parts.append(_section(f"{experiment} — {title}", render_table(headers, rows)))
        record(experiment, table_metrics(headers, rows) if metrics is None else metrics)

    note("experiment: E-IPC")
    comparison = run_ipc_comparison(workloads=kernels, params=params, **run)
    parts.append(_section("E-IPC — policy comparison", comparison.render()))
    record("E-IPC", comparison.metrics())

    note("experiment: E-RL")
    rl = run_reconfig_latency_sweep(
        [1, 4, 16, 64, 256], program=phased(11, INT_MIX, FP_MIX, MEM_MIX), **run
    )
    table("E-RL", "reconfiguration latency",
          ["latency", "steering IPC", "ffu-only IPC", "reconfigs"], rl,
          latency_sweep_metrics(rl))

    note("experiment: E-PH")
    adaptation = run_phase_adaptation(
        phases=[(mix, 60 * scale) for mix in (INT_MIX, MEM_MIX, FP_MIX)],
        params=ProcessorParams(reconfig_latency=4),
        **run,
    )
    parts.append(
        _section(
            "E-PH — phase adaptation",
            f"IPC {adaptation.result.ipc:.3f}, "
            f"{adaptation.result.reconfigurations} reconfigurations, "
            f"kept-current {adaptation.kept_fraction:.3f}, "
            f"settle points {adaptation.settle_points()[:6]}",
        )
    )
    record("E-PH", adaptation.metrics())

    note("experiment: E-Q")
    qd = run_queue_depth_sweep(
        [3, 5, 7, 11, 16], program=phased(7, INT_MIX, FP_MIX, length=50), **run
    )
    table("E-Q", "queue depth", ["depth", "IPC"], qd, queue_depth_metrics(qd))

    note("experiment: E-CEM")
    cem = run_cem_ablation(
        workloads=pick("checksum", "memcpy", "saxpy", "newton_sqrt"),
        params=params,
        **run,
    )
    table("E-CEM", "metric ablation", ["workload", "approx IPC", "exact IPC"],
          cem, cem_metrics(cem))

    note("experiment: E-FRONT")
    front = run_frontend_ablation(**run)
    parts.append(_section("E-FRONT — front-end ablations", front.render()))
    record("E-FRONT", front.metrics())

    note("experiment: E-ORTH")
    table(
        "E-ORTH", "steering-basis orthogonality", ["basis", "similarity", "IPC"],
        run_orthogonality_study(n_bases=6, seed=0, params=params, **run),
    )

    note("experiment: E-COST")
    parts.append(
        _section("E-COST — circuit cost", run_circuit_cost_report([4, 7, 16]))
    )
    record("E-COST", circuit_cost_metrics([4, 7, 16]))

    four = pick("checksum", "memcpy", "saxpy", "fir_filter")
    note("experiment: E-DEMAND")
    table(
        "E-DEMAND", "steering without predefined configurations",
        ["workload", "ffu-only", "steering", "demand",
         "reconfigs steering", "reconfigs demand"],
        run_demand_steering(
            four + [("phased", phased(11, INT_MIX, MEM_MIX, FP_MIX))], params, **run
        ),
    )

    note("experiment: E-BASIS")
    table(
        "E-BASIS", "designed vs paper basis",
        ["basis", "profile cost", "held-out IPC", "members"],
        run_basis_design(
            [k.program for k in all_kernels()],
            phased(23, INT_MIX, MEM_MIX, FP_MIX),
            params,
            **run,
        ),
    )

    note("experiment: E-FLOW")
    table(
        "E-FLOW", "module- vs difference-based reconfiguration",
        ["latency/slot", "module IPC", "difference IPC",
         "module bus cycles", "difference bus cycles"],
        run_reconfig_flows(phased(9, INT_MIX, MEM_MIX, FP_MIX), **run),
    )

    note("experiment: E-STALL")
    table(
        "E-STALL", "structural-stall entry-cycles",
        ["workload", "blocked (ffu)", "blocked (steer)",
         "contention (ffu)", "contention (steer)", "IPC"],
        run_stall_attribution(four, params, **run),
    )

    note("experiment: E-SPEC")
    table(
        "E-SPEC", "atomic vs pipelined select-free scheduling",
        ["workload", "atomic IPC", "select-free IPC", "replays"],
        run_pipelined_scheduling(four, params, **run),
    )

    if telemetry:
        note("experiment: E-TEL")
        tel_job = SimJob(
            "steering-telemetry",
            phased(0, INT_MIX, MEM_MIX, FP_MIX),
            params,
            max_cycles=100_000 if fast else 400_000,
            label="E-TEL phased steering",
        )
        payload = run_many([tel_job], workers=workers, cache=cache)[0]
        result = payload["result"]
        snapshot = payload["timeseries"]
        trace = payload["trace"]
        series = snapshot.get("series", {})
        n_points = sum(len(s.get("x", ())) for s in series.values())
        parts.append(
            _section(
                "E-TEL — instrumented steering run",
                f"IPC {result.ipc:.3f}, {result.cycles} cycles, "
                f"{result.reconfigurations} reconfigurations\n"
                f"{len(series)} time-series ({n_points} samples, "
                f"interval {snapshot.get('sample_interval')}), "
                f"{len(trace.get('traceEvents', ()))} trace events",
            )
        )
        record(
            "E-TEL",
            {
                "ipc": result.ipc,
                "cycles": float(result.cycles),
                "reconfigurations": float(result.reconfigurations),
                "series": float(len(series)),
                "series_samples": float(n_points),
                "trace_events": float(len(trace.get("traceEvents", ()))),
            },
        )

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
