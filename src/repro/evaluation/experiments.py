"""The quantitative experiments (DESIGN.md E-IPC .. E-SPEC).

The paper's stated objective is "to increase the achieved instruction
level parallelism of the processor by best matching the processor
configuration to the instructions that are ready to be executed"; it
reports no measurements.  These experiments supply that evaluation.  The
reproduction target is the *shape* of each result (orderings, trends,
crossovers), not absolute numbers.

Each experiment is one function of the report scale (``1`` fast, ``2``
full) and a batch runner (``jobs -> results``, :func:`run_many` with the
report's workers and cache bound).  It builds its own inputs, submits its
jobs through the runner and returns its section title, its body text and
its flat ``{name: float}`` metric dict; :mod:`repro.evaluation.claims`
states the expected shapes as predicates over those dicts, so an
experiment's inputs are its claims' calibration.  :data:`EXPERIMENTS`
lists them in report order.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections.abc import Callable
from typing import Any

from repro.circuits.selection_netlist import build_selection_unit
from repro.core.params import ProcessorParams
from repro.evaluation.basis_search import demand_profile, design_basis, profile_cost
from repro.evaluation.batch import SimJob, policy_job
from repro.evaluation.report import render_table
from repro.fabric.configuration import (
    NUM_RFU_SLOTS,
    PREDEFINED_CONFIGS,
    Configuration,
)
from repro.isa.futypes import FU_TYPES, FUType
from repro.isa.program import Program
from repro.workloads.kernels import (
    Kernel,
    all_kernels,
    checksum,
    dot_product,
    fir_filter,
    memcpy,
    newton_sqrt,
    saxpy,
    sum_reduction,
)
from repro.workloads.kernels_extra import bubble_sort
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX, MixSpec

__all__ = ["EXPERIMENTS", "TELEMETRY", "Runner", "Outcome"]

#: a batch runner: the jobs' results in submission order.
Runner = Callable[[list[SimJob]], list[Any]]
#: what an experiment returns: section title, body text, flat metrics.
Outcome = tuple[str, str, dict[str, float]]

#: the processor every experiment without a swept parameter runs.
_PARAMS = ProcessorParams(reconfig_latency=8)

#: the report's kernels, each sized by the scale.
_KERNELS: tuple[tuple[str, Callable[[int], Kernel]], ...] = (
    ("checksum", lambda scale: checksum(iterations=300 * scale)),
    ("sum_reduction", lambda scale: sum_reduction(n=96 * scale)),
    ("dot_product", lambda scale: dot_product(n=64 * scale)),
    ("memcpy", lambda scale: memcpy(n=120 * scale)),
    ("saxpy", lambda scale: saxpy(n=64 * scale)),
    ("fir_filter", lambda scale: fir_filter(n=48 * scale)),
    ("newton_sqrt", lambda scale: newton_sqrt(iterations=24 * scale)),
)

#: the four kernels E-DEMAND, E-STALL and E-SPEC run.
_FOUR = ("checksum", "memcpy", "saxpy", "fir_filter")


def _kernels(scale: int, names: tuple[str, ...] | None = None) -> list[tuple[str, Program]]:
    """``(name, program)`` of the report's kernels (those in ``names``),
    in :data:`_KERNELS` order."""
    return [
        (name, build(scale).program)
        for name, build in _KERNELS
        if names is None or name in names
    ]


def _phased(scale: int, seed: int, *mixes: MixSpec, length: int = 40) -> Program:
    """A phase-changing program: ``length * scale`` instructions per mix."""
    return phased_program([(mix, length * scale) for mix in mixes], seed=seed)


def _table_metrics(headers: list[str], rows: list) -> dict[str, float]:
    """A results table as a flat metric dict: ``"<column>/<row>"`` for
    every numeric cell, the row named by its first cell."""
    return {
        f"{header}/{row[0]}": value
        for row in rows
        for header, value in zip(headers[1:], row[1:])
        if isinstance(value, (int, float))
    }


def _table(title: str, headers: list[str], rows: list) -> Outcome:
    """An experiment whose metrics are its table's numeric cells."""
    return title, render_table(headers, rows), _table_metrics(headers, rows)


# ------------------------------------------------------------------ E-IPC
def ipc_comparison(scale: int, run: Runner) -> Outcome:
    """E-IPC: steering vs every baseline across the seven kernels."""
    kernels = _kernels(scale)
    policies = ["ffu-only", "steering"]
    policies += [f"static-{cfg.name}" for cfg in PREDEFINED_CONFIGS]
    policies += ["random", "oracle"]
    batch = []
    for name, program in kernels:
        for policy in policies:
            # E-IPC's random baseline switches configuration twice as
            # often as the catalogue's
            arguments = {"period": 100} if policy == "random" else {}
            job = policy_job(policy, program, _PARAMS, **arguments)
            job.label = f"{name}/{policy}"
            batch.append(job)
    results = iter(run(batch))
    ipc = {name: {p: next(results).ipc for p in policies} for name, _ in kernels}
    mean = {p: sum(row[p] for row in ipc.values()) / len(ipc) for p in policies}
    rows = [[name, *row.values()] for name, row in ipc.items()]
    rows.append(["MEAN", *mean.values()])
    body = render_table(["workload"] + policies, rows, title="E-IPC: IPC by policy")
    metrics = {f"mean_ipc_{p}": mean[p] for p in policies}
    metrics["steering_wins"] = sum(
        1 for row in ipc.values() if max(row, key=row.get) == "steering"
    )
    for name, row in ipc.items():
        for policy, value in row.items():
            metrics[f"{policy}/{name}"] = value
    return "policy comparison", body, metrics


# ------------------------------------------------------------------- E-RL
def latency_sweep(scale: int, run: Runner) -> Outcome:
    """E-RL: IPC vs reconfiguration latency.  The FFU-only IPC is
    latency-independent and is the floor steering degrades toward."""
    program = _phased(scale, 11, INT_MIX, FP_MIX, MEM_MIX)
    latencies = (1, 4, 16, 64, 256)
    results = run([
        SimJob(factory, program, ProcessorParams(reconfig_latency=latency),
               label=f"latency={latency}/{factory}")
        for latency in latencies
        for factory in ("steering", "ffu-only")
    ])
    rows = [
        (latency, steer.ipc, ffu.ipc, steer.reconfigurations)
        for latency, steer, ffu in zip(latencies, results[::2], results[1::2])
    ]
    metrics: dict[str, float] = {}
    for latency, steering_ipc, ffu_ipc, reconfigs in rows:
        metrics[f"steering_ipc_lat{latency}"] = steering_ipc
        metrics[f"ffu_ipc_lat{latency}"] = ffu_ipc
        metrics[f"reconfigs_lat{latency}"] = reconfigs
    metrics["ffu_ipc"] = rows[0][2]
    headers = ["latency", "steering IPC", "ffu-only IPC", "reconfigs"]
    return "reconfiguration latency", render_table(headers, rows), metrics


# ------------------------------------------------------------------- E-PH
def phase_adaptation(scale: int, run: Runner) -> Outcome:
    """E-PH: the steering trajectory over a phase-changing workload.

    The ``steering-traced`` job returns the selection runs
    ``(selection, first_cycle, length)``: the candidate index selected
    (0 = current) and for how many cycles.  A settle point is a cycle
    after which the current configuration was kept for 50 cycles.
    """
    program = _phased(scale, 3, INT_MIX, MEM_MIX, FP_MIX, length=60)
    (traced,) = run([
        SimJob("steering-traced", program, ProcessorParams(reconfig_latency=4),
               label="phase-adaptation")
    ])
    result = traced["result"]
    settles = [
        first
        for selection, first, length in traced["selection_runs"]
        if selection == 0 and length >= 50
    ]
    kept = result.steering_kept_fraction
    body = (
        f"IPC {result.ipc:.3f}, {result.reconfigurations} reconfigurations, "
        f"kept-current {kept:.3f}, settle points {settles[:6]}"
    )
    return "phase adaptation", body, {
        "ipc": result.ipc,
        "reconfigurations": result.reconfigurations,
        "kept_fraction": kept,
        "loads": result.reconfigurations,
        "first_settle": settles[0] if settles else -1,
    }


# -------------------------------------------------------------------- E-Q
def queue_depth_sweep(scale: int, run: Runner) -> Outcome:
    """E-Q: IPC vs wake-up window / instruction queue depth."""
    program = _phased(scale, 7, INT_MIX, FP_MIX, length=50)
    depths = (3, 5, 7, 11, 16)
    results = run([
        SimJob("steering", program,
               ProcessorParams(window_size=depth, reconfig_latency=8),
               label=f"depth={depth}")
        for depth in depths
    ])
    rows = [(depth, result.ipc) for depth, result in zip(depths, results)]
    metrics = {f"ipc_depth{depth}": ipc for depth, ipc in rows}
    return "queue depth", render_table(["depth", "IPC"], rows), metrics


# ------------------------------------------------------------------ E-CEM
def cem_ablation(scale: int, run: Runner) -> Outcome:
    """E-CEM: steering with the shift-approximate metric vs exact
    division.  The expectation (justifying the cheap circuit) is
    near-identical IPC.  The approx case runs under E-IPC's params, so it
    shares a cache key with E-IPC's plain steering job."""
    kernels = _kernels(scale, ("checksum", "memcpy", "saxpy", "newton_sqrt"))
    exact = dataclasses.replace(_PARAMS, use_exact_metric=True)
    results = run([
        SimJob("steering", program, params, label=f"{name}/{label}")
        for name, program in kernels
        for label, params in (("approx", _PARAMS), ("exact", exact))
    ])
    rows = [
        (name, shifted.ipc, divided.ipc)
        for (name, _), shifted, divided in zip(kernels, results[::2], results[1::2])
    ]
    metrics = {
        "mean_approx_ipc": sum(r[1] for r in rows) / len(rows),
        "mean_exact_ipc": sum(r[2] for r in rows) / len(rows),
        "max_abs_ipc_gap": max(abs(r[1] - r[2]) for r in rows),
    }
    metrics.update(_table_metrics(["workload", "approx", "exact"], rows))
    headers = ["workload", "approx IPC", "exact IPC"]
    return "metric ablation", render_table(headers, rows), metrics


# ---------------------------------------------------------------- E-FRONT
#: the E-FRONT parameter variants (baseline first).
_FRONTEND_VARIANTS: tuple[tuple[str, dict], ...] = (
    ("baseline (tc=64, bp=256)", {}),
    ("no trace cache", {"use_trace_cache": False}),
    ("tiny predictor (4)", {"predictor_entries": 4}),
    ("tiny BTB (1)", {"btb_entries": 1}),
)

#: the E-FRONT machine-width sweep points.
_FRONTEND_WIDTHS = (1, 2, 4, 8)


def frontend_ablation(scale: int, run: Runner) -> Outcome:
    """E-FRONT: front-end substrate ablations, at one size at every scale.

    Two workloads (a tight loop and a branchy kernel) across the
    trace-cache / predictor / BTB variants, plus a fetch+retire width
    sweep on the loop.
    """
    loopy = checksum(iterations=250).program
    branchy = bubble_sort(n=20).program
    batch: list[SimJob] = []
    for label, overrides in _FRONTEND_VARIANTS:
        params = ProcessorParams(reconfig_latency=8, **overrides)
        batch.append(SimJob("steering", loopy, params, label=f"front/{label}/loopy"))
        batch.append(SimJob("steering", branchy, params, label=f"front/{label}/branchy"))
    for width in _FRONTEND_WIDTHS:
        params = ProcessorParams(
            reconfig_latency=8, fetch_width=width, retire_width=width
        )
        batch.append(SimJob("steering", loopy, params, label=f"front/width={width}"))
    results = run(batch)
    variant_rows = [
        (label, loopy_res.ipc, branchy_res.ipc, branchy_res.branch_accuracy)
        for (label, _), loopy_res, branchy_res in zip(
            _FRONTEND_VARIANTS, results[0::2], results[1::2]
        )
    ]
    offset = 2 * len(_FRONTEND_VARIANTS)
    width_rows = [
        (width, result.ipc)
        for width, result in zip(_FRONTEND_WIDTHS, results[offset:])
    ]
    variant_headers = ["variant", "loopy IPC", "branchy IPC", "branch accuracy"]
    body = render_table(
        variant_headers,
        [(v, f"{li:.3f}", f"{bi:.3f}", f"{acc:.3f}")
         for v, li, bi, acc in variant_rows],
        title="E-FRONT: front-end ablations",
    ) + "\n\n" + render_table(
        ["fetch/retire width", "loopy IPC"],
        [(w, f"{ipc:.3f}") for w, ipc in width_rows],
        title="E-FRONT: machine width sweep",
    )
    _, loopy_ipc, branchy_ipc, accuracy = variant_rows[0]
    metrics = {
        "baseline_loopy_ipc": loopy_ipc,
        "baseline_branchy_ipc": branchy_ipc,
        "baseline_branch_accuracy": accuracy,
    }
    metrics.update(_table_metrics(variant_headers, variant_rows))
    for width, ipc in width_rows:
        metrics[f"ipc_width{width}"] = ipc
    return "front-end ablations", body, metrics


# ----------------------------------------------------------------- E-ORTH
def _random_basis(rng: random.Random, n_configs: int = 3) -> list[Configuration]:
    """A random steering basis: ``n_configs`` configurations each filling
    the slot budget greedily with random unit types."""
    basis = []
    for k in range(n_configs):
        counts: dict[FUType, int] = {}
        free = NUM_RFU_SLOTS
        attempts = 0
        while free > 0 and attempts < 50:
            t = rng.choice(list(FU_TYPES))
            attempts += 1
            if t.slot_cost <= free:
                counts[t] = counts.get(t, 0) + 1
                free -= t.slot_cost
        basis.append(Configuration(f"rand{k}", counts).validate())
    return basis


def _basis_similarity(basis: list[Configuration]) -> float:
    """Mean pairwise cosine similarity of the count vectors (0 = fully
    orthogonal, 1 = identical)."""
    vecs = [b.as_vector() for b in basis]
    sims = []
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            a, b = vecs[i], vecs[j]
            na = math.sqrt(sum(x * x for x in a))
            nb = math.sqrt(sum(x * x for x in b))
            if na == 0 or nb == 0:
                sims.append(0.0)
                continue
            sims.append(sum(x * y for x, y in zip(a, b)) / (na * nb))
    return sum(sims) / len(sims) if sims else 0.0


def orthogonality_study(scale: int, run: Runner) -> Outcome:
    """E-ORTH (§5 future work): does a more orthogonal steering basis help?

    The paper's basis, a degenerate anchor and six random bases on one
    mixed phase-changing workload, at one size at every scale.  The
    expected shape is a loose negative relation between similarity and
    IPC, with the paper's hand-designed basis among the best.
    """
    rng = random.Random(0)
    program = phased_program([(INT_MIX, 40), (MEM_MIX, 40), (FP_MIX, 40)], seed=5)
    bases: list[tuple[str, list[Configuration]]] = [
        ("paper", list(PREDEFINED_CONFIGS)),
        # anchor: a maximally non-orthogonal basis (three identical members)
        # covers exactly one workload regime and should lose on phased code
        ("degenerate", [PREDEFINED_CONFIGS[0]] * 3),
    ]
    bases += [(f"random-{k}", _random_basis(rng)) for k in range(6)]
    results = run([
        SimJob("steering-basis", program, _PARAMS, max_cycles=200_000,
               kwargs={"configs": list(basis)}, label=name)
        for name, basis in bases
    ])
    rows = [
        (name, _basis_similarity(basis), result.ipc)
        for (name, basis), result in zip(bases, results)
    ]
    return _table("steering-basis orthogonality", ["basis", "similarity", "IPC"], rows)


# ----------------------------------------------------------------- E-COST
def circuit_cost(scale: int, run: Runner) -> Outcome:
    """E-COST: gate count and logic depth of the four-stage selection
    unit's netlist, one synthesis per queue size (no simulation): each
    stage's own gates and the logic depth at its outputs, then the whole
    netlist's ``total``."""
    tables = []
    metrics: dict[str, float] = {}
    for n in (4, 7, 16):
        netlist = build_selection_unit(n_entries=n)
        rows = [*netlist.stages, ("total", netlist.gate_count, netlist.depth)]
        tables.append(render_table(
            ["stage", "2-input gates", "logic depth"],
            rows,
            title=f"E-COST: selection unit, {n}-entry queue",
        ))
        metrics[f"gates_q{n}"] = netlist.gate_count
        metrics[f"depth_q{n}"] = netlist.depth
    return "circuit cost", "\n\n".join(tables), metrics


# ------------------------------------------- E-DEMAND, E-STALL, E-SPEC
def _grid(
    run: Runner,
    workloads: list[tuple[str, Program]],
    factories: tuple[str, ...],
    params: ProcessorParams = _PARAMS,
) -> list[tuple]:
    """``(workload, result per factory...)`` rows, one batch for all."""
    results = iter(run([
        SimJob(factory, program, params, label=f"{name}/{factory}")
        for name, program in workloads
        for factory in factories
    ]))
    return [(name, *[next(results) for _ in factories]) for name, _ in workloads]


def demand_steering(scale: int, run: Runner) -> Outcome:
    """E-DEMAND (§5): steering without predefined configurations."""
    workloads = _kernels(scale, _FOUR)
    workloads.append(("phased", _phased(scale, 11, INT_MIX, MEM_MIX, FP_MIX)))
    rows = [
        (name, ffu.ipc, steer.ipc, demand.ipc,
         steer.reconfigurations, demand.reconfigurations)
        for name, ffu, steer, demand in _grid(
            run, workloads, ("ffu-only", "steering", "demand")
        )
    ]
    return _table(
        "steering without predefined configurations",
        ["workload", "ffu-only", "steering", "demand",
         "reconfigs steering", "reconfigs demand"],
        rows,
    )


# ---------------------------------------------------------------- E-BASIS
def basis_design(scale: int, run: Runner) -> Outcome:
    """E-BASIS (§5): design a basis for the demand profile of every
    kernel by k-means and compare it with the paper's, on the clustering
    objective and by steered IPC on a held-out phased program."""
    profile = demand_profile([k.program for k in all_kernels()], run)
    designed, designed_cost = design_basis(profile, seed=1)
    bases = (
        ("paper", PREDEFINED_CONFIGS, profile_cost(profile, PREDEFINED_CONFIGS)),
        ("designed", designed, designed_cost),
    )
    held_out = _phased(scale, 23, INT_MIX, MEM_MIX, FP_MIX)
    results = run([
        SimJob("steering-basis", held_out, _PARAMS,
               kwargs={"configs": list(basis)}, label=f"basis/{label}")
        for label, basis, _ in bases
    ])
    rows = [
        (label, cost, result.ipc, " | ".join(str(c) for c in basis))
        for (label, basis, cost), result in zip(bases, results)
    ]
    return _table(
        "designed vs paper basis",
        ["basis", "profile cost", "held-out IPC", "members"],
        rows,
    )


# ----------------------------------------------------------------- E-FLOW
def reconfig_flows(scale: int, run: Runner) -> Outcome:
    """E-FLOW: module- vs difference-based partial reconfiguration ([8])."""
    program = _phased(scale, 9, INT_MIX, MEM_MIX, FP_MIX)
    latencies = (4, 16, 64)
    results = run([
        SimJob("steering", program,
               ProcessorParams(reconfig_latency=latency, reconfig_mode=mode),
               label=f"latency={latency}/{mode}")
        for latency in latencies
        for mode in ("module", "difference")
    ])
    rows = [
        (latency, module.ipc, diff.ipc,
         module.reconfig_bus_cycles, diff.reconfig_bus_cycles)
        for latency, module, diff in zip(latencies, results[::2], results[1::2])
    ]
    return _table(
        "module- vs difference-based reconfiguration",
        ["latency/slot", "module IPC", "difference IPC",
         "module bus cycles", "difference bus cycles"],
        rows,
    )


def stall_attribution(scale: int, run: Runner) -> Outcome:
    """E-STALL: entry-cycles lost to a missing unit type (blocked) and to
    lost grant arbitration (contention), FFU-only vs steering."""
    rows = [
        (name, ffu.resource_blocked_cycles, steer.resource_blocked_cycles,
         ffu.contention_cycles, steer.contention_cycles,
         f"{ffu.ipc:.3f} -> {steer.ipc:.3f}")
        for name, ffu, steer in _grid(
            run, _kernels(scale, _FOUR), ("ffu-only", "steering")
        )
    ]
    return _table(
        "structural-stall entry-cycles",
        ["workload", "blocked (ffu)", "blocked (steer)",
         "contention (ffu)", "contention (steer)", "IPC"],
        rows,
    )


def pipelined_scheduling(scale: int, run: Runner) -> Outcome:
    """E-SPEC: atomic vs pipelined select-free scheduling ([9])."""
    kernels = _kernels(scale, _FOUR)
    pipelined = dataclasses.replace(_PARAMS, pipelined_scheduling=True)
    atomic = _grid(run, kernels, ("steering",))
    spec = _grid(run, kernels, ("steering",), pipelined)
    rows = [
        (name, a.ipc, s.ipc, s.scheduling_replays)
        for (name, a), (_, s) in zip(atomic, spec)
    ]
    return _table(
        "atomic vs pipelined select-free scheduling",
        ["workload", "atomic IPC", "select-free IPC", "replays"],
        rows,
    )


# ------------------------------------------------------------------ E-TEL
def instrumented_run(scale: int, run: Runner) -> Outcome:
    """E-TEL: one instrumented steering run (the ``steering-telemetry``
    factory) whose per-cycle time-series and trace spans persist into the
    report's cache and store."""
    (payload,) = run([
        SimJob("steering-telemetry", _phased(scale, 0, INT_MIX, MEM_MIX, FP_MIX),
               _PARAMS, max_cycles=100_000 if scale == 1 else 400_000,
               label="E-TEL phased steering")
    ])
    result = payload["result"]
    snapshot = payload["timeseries"]
    series = snapshot.get("series", {})
    n_points = sum(len(s.get("x", ())) for s in series.values())
    n_events = len(payload["trace"].get("traceEvents", ()))
    body = (
        f"IPC {result.ipc:.3f}, {result.cycles} cycles, "
        f"{result.reconfigurations} reconfigurations\n"
        f"{len(series)} time-series ({n_points} samples, "
        f"interval {snapshot.get('sample_interval')}), "
        f"{n_events} trace events"
    )
    return "instrumented steering run", body, {
        "ipc": result.ipc,
        "cycles": float(result.cycles),
        "reconfigurations": float(result.reconfigurations),
        "series": float(len(series)),
        "series_samples": float(n_points),
        "trace_events": float(n_events),
    }


#: every experiment of ``repro report``, in report order.
EXPERIMENTS: tuple[tuple[str, Callable[[int, Runner], Outcome]], ...] = (
    ("E-IPC", ipc_comparison),
    ("E-RL", latency_sweep),
    ("E-PH", phase_adaptation),
    ("E-Q", queue_depth_sweep),
    ("E-CEM", cem_ablation),
    ("E-FRONT", frontend_ablation),
    ("E-ORTH", orthogonality_study),
    ("E-COST", circuit_cost),
    ("E-DEMAND", demand_steering),
    ("E-BASIS", basis_design),
    ("E-FLOW", reconfig_flows),
    ("E-STALL", stall_attribution),
    ("E-SPEC", pipelined_scheduling),
)

#: the experiment ``repro report --telemetry`` appends.
TELEMETRY = ("E-TEL", instrumented_run)
