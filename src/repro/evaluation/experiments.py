"""The quantitative experiments (DESIGN.md E-IPC .. E-SPEC).

The paper's stated objective is "to increase the achieved instruction
level parallelism of the processor by best matching the processor
configuration to the instructions that are ready to be executed"; it
reports no measurements.  These experiments supply that evaluation.  The
reproduction target is the *shape* of each result (orderings, trends,
crossovers), not absolute numbers.  Each experiment's results reduce to a
flat ``{name: float}`` metric dict (a ``*_metrics`` function or
:func:`table_metrics`); :mod:`repro.evaluation.claims` states the expected
shapes as predicates over those dicts.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.circuits.selection_netlist import build_selection_unit
from repro.core.params import ProcessorParams
from repro.core.stats import SimulationResult
from repro.errors import ConfigurationError
from repro.evaluation.basis_search import demand_profile, design_basis, profile_cost
from repro.evaluation.batch import ResultCache, SimJob, policy_job, run_many
from repro.evaluation.report import render_table
from repro.fabric.configuration import (
    NUM_RFU_SLOTS,
    PREDEFINED_CONFIGS,
    Configuration,
)
from repro.isa.futypes import FU_TYPES, FUType
from repro.isa.program import Program
from repro.workloads.kernels import all_kernels
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX, MixSpec

__all__ = [
    "IpcComparison",
    "FrontendAblation",
    "run_ipc_comparison",
    "run_reconfig_latency_sweep",
    "run_phase_adaptation",
    "run_queue_depth_sweep",
    "run_cem_ablation",
    "run_frontend_ablation",
    "run_orthogonality_study",
    "CircuitCostReport",
    "run_circuit_cost_report",
    "run_demand_steering",
    "run_stall_attribution",
    "run_pipelined_scheduling",
    "run_reconfig_flows",
    "run_basis_design",
    "latency_sweep_metrics",
    "queue_depth_metrics",
    "cem_metrics",
    "table_metrics",
]

_DEFAULT_PARAMS = ProcessorParams(reconfig_latency=8)


# ------------------------------------------------------------------ E-IPC
@dataclass
class IpcComparison:
    """IPC of every policy on every workload."""

    workloads: list[str]
    policies: list[str]
    #: ipc[workload][policy]
    ipc: dict[str, dict[str, float]]
    results: dict[str, dict[str, SimulationResult]] = field(default_factory=dict)

    def winner(self, workload: str) -> str:
        row = self.ipc[workload]
        return max(row, key=row.get)

    def mean_ipc(self, policy: str) -> float:
        vals = [self.ipc[w][policy] for w in self.workloads]
        return sum(vals) / len(vals)

    def render(self) -> str:
        rows = []
        for w in self.workloads:
            rows.append([w] + [self.ipc[w][p] for p in self.policies])
        rows.append(
            ["MEAN"] + [self.mean_ipc(p) for p in self.policies]
        )
        return render_table(
            ["workload"] + self.policies, rows, title="E-IPC: IPC by policy"
        )

    def metrics(self) -> dict[str, float]:
        """Flat scalar view: IPC per workload and policy, mean per policy."""
        out = {f"mean_ipc_{p}": self.mean_ipc(p) for p in self.policies}
        out["steering_wins"] = sum(
            1 for w in self.workloads if self.winner(w) == "steering"
        )
        for w in self.workloads:
            for p in self.policies:
                out[f"{p}/{w}"] = self.ipc[w][p]
        return out


def run_ipc_comparison(
    workloads: list[tuple[str, Program]] | None = None,
    params: ProcessorParams | None = None,
    include_oracle: bool = True,
    max_cycles: int = 400_000,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> IpcComparison:
    """E-IPC: steering vs every baseline across the workload suite."""
    params = params if params is not None else _DEFAULT_PARAMS
    if workloads is None:
        workloads = [(k.name, k.program) for k in all_kernels()]

    policies = ["ffu-only", "steering"]
    policies += [f"static-{cfg.name}" for cfg in PREDEFINED_CONFIGS]
    policies += ["random", "oracle"] if include_oracle else ["random"]
    # E-IPC's random baseline switches configuration twice as often as
    # the catalogue's
    arguments = {"random": {"period": 100}}

    batch: list[SimJob] = []
    slots: list[tuple[str, str]] = []
    for name, program in workloads:
        for policy in policies:
            job = policy_job(
                policy, program, params, max_cycles, **arguments.get(policy, {})
            )
            job.label = f"{name}/{policy}"
            batch.append(job)
            slots.append((name, policy))

    ipc: dict[str, dict[str, float]] = {w: {} for w, _ in workloads}
    results: dict[str, dict[str, SimulationResult]] = {w: {} for w, _ in workloads}
    for (name, policy), result in zip(slots, run_many(batch, workers, cache)):
        ipc[name][policy] = result.ipc
        results[name][policy] = result
    return IpcComparison(
        workloads=[w for w, _ in workloads],
        policies=policies,
        ipc=ipc,
        results=results,
    )


# ------------------------------------------------------------------- E-RL
def run_reconfig_latency_sweep(
    latencies: list[int] | None = None,
    program: Program | None = None,
    max_cycles: int = 400_000,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[tuple[int, float, float, int]]:
    """E-RL: IPC vs reconfiguration latency.

    Returns ``(latency, steering_ipc, ffu_only_ipc, reconfigurations)``
    per point; the FFU-only IPC is latency-independent and serves as the
    floor steering degrades toward.
    """
    if latencies is None:
        latencies = [1, 4, 16, 64, 256]
    if program is None:
        program = phased_program(
            [(INT_MIX, 30), (FP_MIX, 30), (MEM_MIX, 30)], seed=11
        )
    batch = []
    for latency in latencies:
        params = ProcessorParams(reconfig_latency=latency)
        for factory in ("steering", "ffu-only"):
            batch.append(
                SimJob(
                    factory,
                    program,
                    params,
                    max_cycles=max_cycles,
                    label=f"latency={latency}/{factory}",
                )
            )
    results = run_many(batch, workers, cache)
    out = []
    for i, latency in enumerate(latencies):
        steer, ffu = results[2 * i], results[2 * i + 1]
        out.append((latency, steer.ipc, ffu.ipc, steer.reconfigurations))
    return out


def latency_sweep_metrics(
    rows: list[tuple[int, float, float, int]],
) -> dict[str, float]:
    """Flatten E-RL rows for the run store."""
    out: dict[str, float] = {}
    for latency, steering_ipc, ffu_ipc, reconfigs in rows:
        out[f"steering_ipc_lat{latency}"] = steering_ipc
        out[f"ffu_ipc_lat{latency}"] = ffu_ipc
        out[f"reconfigs_lat{latency}"] = reconfigs
    if rows:
        out["ffu_ipc"] = rows[0][2]
    return out


# ------------------------------------------------------------------- E-PH
@dataclass
class PhaseAdaptation:
    """Steering behaviour across workload phases."""

    result: SimulationResult
    #: the selection runs, ``(selection, first_cycle, length)``: the
    #: candidate index selected (0 = current) and for how many cycles.
    selection_runs: list[tuple[int, int, int]]

    @property
    def kept_fraction(self) -> float:
        """Fraction of cycles the current configuration was kept."""
        return self.result.steering_kept_fraction

    def settle_points(self, window: int = 50) -> list[int]:
        """Cycles after which the selection stayed 'current' for ``window``
        consecutive cycles (the steering 'settled')."""
        return [
            first
            for selection, first, length in self.selection_runs
            if selection == 0 and length >= window
        ]

    def metrics(self) -> dict[str, float]:
        """Flat scalar view for the run store."""
        settles = self.settle_points()
        return {
            "ipc": self.result.ipc,
            "reconfigurations": self.result.reconfigurations,
            "kept_fraction": self.kept_fraction,
            "loads": self.result.reconfigurations,
            "first_settle": settles[0] if settles else -1,
        }


def run_phase_adaptation(
    phases: list[tuple[MixSpec, int]] | None = None,
    params: ProcessorParams | None = None,
    seed: int = 3,
    max_cycles: int = 400_000,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> PhaseAdaptation:
    """E-PH: track the steering trajectory over a phase-changing workload.

    Runs through the batch engine (the ``steering-traced`` factory returns
    the trace as a picklable dict), so the traced simulation joins
    the report's shared result cache and job graph like every other
    experiment.
    """
    if phases is None:
        phases = [(INT_MIX, 60), (MEM_MIX, 60), (FP_MIX, 60)]
    params = params if params is not None else _DEFAULT_PARAMS
    program = phased_program(phases, seed=seed)
    job = SimJob(
        "steering-traced",
        program,
        params,
        max_cycles=max_cycles,
        label="phase-adaptation",
    )
    traced = run_many([job], workers, cache)[0]
    return PhaseAdaptation(traced["result"], traced["selection_runs"])


# -------------------------------------------------------------------- E-Q
def run_queue_depth_sweep(
    depths: list[int] | None = None,
    program: Program | None = None,
    max_cycles: int = 400_000,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[tuple[int, float]]:
    """E-Q: IPC vs wake-up window / instruction queue depth."""
    if depths is None:
        depths = [3, 5, 7, 11, 16]
    if program is None:
        program = phased_program([(INT_MIX, 40), (FP_MIX, 40)], seed=7)
    batch = [
        SimJob(
            "steering",
            program,
            ProcessorParams(window_size=depth, reconfig_latency=8),
            max_cycles=max_cycles,
            label=f"depth={depth}",
        )
        for depth in depths
    ]
    results = run_many(batch, workers, cache)
    return [(depth, result.ipc) for depth, result in zip(depths, results)]


def queue_depth_metrics(rows: list[tuple[int, float]]) -> dict[str, float]:
    """Flatten E-Q rows for the run store."""
    return {f"ipc_depth{depth}": ipc for depth, ipc in rows}


# ------------------------------------------------------------------ E-CEM
def run_cem_ablation(
    workloads: list[tuple[str, Program]] | None = None,
    params: ProcessorParams | None = None,
    max_cycles: int = 400_000,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[tuple[str, float, float]]:
    """E-CEM: steering with the shift-approximate metric vs exact division.

    Returns ``(workload, approx_ipc, exact_ipc)`` rows.  The expectation
    (justifying the cheap circuit) is near-identical IPC.
    """
    params = params if params is not None else _DEFAULT_PARAMS
    if workloads is None:
        workloads = [(k.name, k.program) for k in all_kernels()]
    batch = []
    # the approx case runs under the caller's params, so it shares a cache
    # key with E-IPC's plain steering job
    exact = dataclasses.replace(params, use_exact_metric=True)
    for name, program in workloads:
        for label, cem_params in (("approx", params), ("exact", exact)):
            batch.append(
                SimJob(
                    "steering",
                    program,
                    cem_params,
                    max_cycles=max_cycles,
                    label=f"{name}/{label}",
                )
            )
    results = run_many(batch, workers, cache)
    return [
        (name, results[2 * i].ipc, results[2 * i + 1].ipc)
        for i, (name, _) in enumerate(workloads)
    ]


def cem_metrics(rows: list[tuple[str, float, float]]) -> dict[str, float]:
    """Flatten E-CEM rows: per-workload IPCs, means and the worst gap."""
    if not rows:
        return {}
    out = {
        "mean_approx_ipc": sum(r[1] for r in rows) / len(rows),
        "mean_exact_ipc": sum(r[2] for r in rows) / len(rows),
        "max_abs_ipc_gap": max(abs(r[1] - r[2]) for r in rows),
    }
    out.update(table_metrics(["workload", "approx", "exact"], rows))
    return out


# ---------------------------------------------------------------- E-FRONT
@dataclass
class FrontendAblation:
    """Front-end substrate ablations (trace cache, predictor, width)."""

    #: ``(variant, loopy_ipc, branchy_ipc, branch_accuracy)`` rows.
    variant_rows: list[tuple[str, float, float, float]]
    #: ``(fetch/retire width, loopy_ipc)`` rows.
    width_rows: list[tuple[int, float]]

    def variant(self, label: str) -> tuple[str, float, float, float]:
        for row in self.variant_rows:
            if row[0] == label:
                return row
        raise ConfigurationError(f"no ablation variant {label!r}")

    def render(self) -> str:
        variants = render_table(
            ["variant", "loopy IPC", "branchy IPC", "branch accuracy"],
            [(v, f"{li:.3f}", f"{bi:.3f}", f"{acc:.3f}")
             for v, li, bi, acc in self.variant_rows],
            title="E-FRONT: front-end ablations",
        )
        widths = render_table(
            ["fetch/retire width", "loopy IPC"],
            [(w, f"{ipc:.3f}") for w, ipc in self.width_rows],
            title="E-FRONT: machine width sweep",
        )
        return variants + "\n\n" + widths

    def metrics(self) -> dict[str, float]:
        """Flat scalar view: every variant's IPCs and accuracy, every width."""
        _, loopy, branchy, accuracy = self.variant_rows[0]
        out = {
            "baseline_loopy_ipc": loopy,
            "baseline_branchy_ipc": branchy,
            "baseline_branch_accuracy": accuracy,
        }
        out.update(table_metrics(
            ["variant", "loopy IPC", "branchy IPC", "branch accuracy"],
            self.variant_rows,
        ))
        for width, ipc in self.width_rows:
            out[f"ipc_width{width}"] = ipc
        return out


#: the E-FRONT parameter variants (baseline first).
_FRONTEND_VARIANTS: tuple[tuple[str, dict], ...] = (
    ("baseline (tc=64, bp=256)", {}),
    ("no trace cache", {"use_trace_cache": False}),
    ("tiny predictor (4)", {"predictor_entries": 4}),
    ("tiny BTB (1)", {"btb_entries": 1}),
)

#: the E-FRONT machine-width sweep points.
_FRONTEND_WIDTHS = (1, 2, 4, 8)


def run_frontend_ablation(
    loopy: Program | None = None,
    branchy: Program | None = None,
    max_cycles: int = 400_000,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> FrontendAblation:
    """E-FRONT: front-end substrate ablations as one batch job graph.

    Two workloads (a tight loop and a branchy kernel) across the
    trace-cache / predictor / BTB variants, plus a fetch+retire width
    sweep on the loop — all submitted through :func:`run_many` so the
    whole study parallelises and caches like the other experiments.
    """
    if loopy is None:
        loopy = _frontend_loopy()
    if branchy is None:
        branchy = _frontend_branchy()

    batch: list[SimJob] = []
    for label, overrides in _FRONTEND_VARIANTS:
        params = ProcessorParams(reconfig_latency=8, **overrides)
        batch.append(SimJob("steering", loopy, params, max_cycles=max_cycles,
                            label=f"front/{label}/loopy"))
        batch.append(SimJob("steering", branchy, params, max_cycles=max_cycles,
                            label=f"front/{label}/branchy"))
    for width in _FRONTEND_WIDTHS:
        params = ProcessorParams(
            reconfig_latency=8, fetch_width=width, retire_width=width
        )
        batch.append(SimJob("steering", loopy, params, max_cycles=max_cycles,
                            label=f"front/width={width}"))

    results = run_many(batch, workers, cache)
    variant_rows = []
    for i, (label, _) in enumerate(_FRONTEND_VARIANTS):
        loopy_res, branchy_res = results[2 * i], results[2 * i + 1]
        variant_rows.append(
            (label, loopy_res.ipc, branchy_res.ipc, branchy_res.branch_accuracy)
        )
    offset = 2 * len(_FRONTEND_VARIANTS)
    width_rows = [
        (width, results[offset + j].ipc)
        for j, width in enumerate(_FRONTEND_WIDTHS)
    ]
    return FrontendAblation(variant_rows=variant_rows, width_rows=width_rows)


def _frontend_loopy() -> Program:
    from repro.workloads.kernels import checksum

    return checksum(iterations=250).program


def _frontend_branchy() -> Program:
    from repro.workloads.kernels_extra import bubble_sort

    return bubble_sort(n=20).program


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
    import math

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


def run_orthogonality_study(
    n_bases: int = 6,
    seed: int = 0,
    params: ProcessorParams | None = None,
    max_cycles: int = 200_000,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[tuple[str, float, float]]:
    """E-ORTH (§5 future work): does a more orthogonal steering basis help?

    Evaluates the paper's basis plus ``n_bases`` random bases on a mixed
    phase-changing workload.  Returns ``(basis, similarity, ipc)`` rows —
    the expected shape is a loose negative relation between similarity and
    IPC, with the paper's hand-designed basis among the best.
    """
    params = params if params is not None else _DEFAULT_PARAMS
    rng = random.Random(seed)
    program = phased_program([(INT_MIX, 40), (MEM_MIX, 40), (FP_MIX, 40)], seed=5)

    bases: list[tuple[str, list[Configuration]]] = [
        ("paper", list(PREDEFINED_CONFIGS)),
        # anchor: a maximally non-orthogonal basis (three identical members)
        # covers exactly one workload regime and should lose on phased code
        ("degenerate", [PREDEFINED_CONFIGS[0]] * 3),
    ]
    for k in range(n_bases):
        bases.append((f"random-{k}", _random_basis(rng)))

    batch = [
        SimJob(
            "steering-basis",
            program,
            params,
            max_cycles=max_cycles,
            kwargs={"configs": list(basis)},
            label=name,
        )
        for name, basis in bases
    ]
    results = run_many(batch, workers, cache)
    return [
        (name, _basis_similarity(basis), result.ipc)
        for (name, basis), result in zip(bases, results)
    ]


# ----------------------------------------------------------------- E-COST
@dataclass
class CircuitCostReport:
    """E-COST: the four-stage selection unit synthesised per queue size.

    ``stages[n]`` holds ``(stage, gates, depth)`` rows for an ``n``-entry
    queue — each stage's own gates and the logic depth at its outputs —
    ending with the whole netlist's ``total``.
    """

    stages: dict[int, list[tuple[str, int, int]]]

    def render(self) -> str:
        return "\n\n".join(
            render_table(
                ["stage", "2-input gates", "logic depth"],
                rows,
                title=f"E-COST: selection unit, {n}-entry queue",
            )
            for n, rows in self.stages.items()
        )

    def metrics(self) -> dict[str, float]:
        """Total gates and logic depth per queue size."""
        out: dict[str, float] = {}
        for n, rows in self.stages.items():
            _, gates, depth = rows[-1]
            out[f"gates_q{n}"] = gates
            out[f"depth_q{n}"] = depth
        return out


def run_circuit_cost_report(queue_sizes: list[int] | None = None) -> CircuitCostReport:
    """E-COST: gate count and logic depth of the selection unit's netlist,
    one synthesis per queue size."""
    stages = {}
    for n in queue_sizes if queue_sizes is not None else [7]:
        netlist = build_selection_unit(n_entries=n)
        stages[n] = [*netlist.stages, ("total", netlist.gate_count, netlist.depth)]
    return CircuitCostReport(stages)


# ------------------------------------------- E-DEMAND, E-STALL, E-SPEC
def _grid(
    workloads: list[tuple[str, Program]],
    factories: tuple[str, ...],
    params: ProcessorParams | None,
    workers: int,
    cache: ResultCache | None,
) -> list[tuple]:
    """``(workload, result per factory...)`` rows, one batch for all."""
    params = params if params is not None else _DEFAULT_PARAMS
    batch = [
        SimJob(factory, program, params, label=f"{name}/{factory}")
        for name, program in workloads
        for factory in factories
    ]
    results = iter(run_many(batch, workers, cache))
    return [(name, *[next(results) for _ in factories]) for name, _ in workloads]


def run_demand_steering(
    workloads: list[tuple[str, Program]],
    params: ProcessorParams | None = None,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[tuple[str, float, float, float, int, int]]:
    """E-DEMAND (§5): steering without predefined configurations.

    Returns ``(workload, ffu_ipc, steering_ipc, demand_ipc,
    steering_reconfigs, demand_reconfigs)`` rows.
    """
    return [
        (name, ffu.ipc, steer.ipc, demand.ipc,
         steer.reconfigurations, demand.reconfigurations)
        for name, ffu, steer, demand in _grid(
            workloads, ("ffu-only", "steering", "demand"), params, workers, cache
        )
    ]


def run_stall_attribution(
    workloads: list[tuple[str, Program]],
    params: ProcessorParams | None = None,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[tuple[str, int, int, int, int, str]]:
    """E-STALL: entry-cycles lost to a missing unit type (blocked) and to
    lost grant arbitration (contention), FFU-only vs steering.

    Returns ``(workload, blocked_ffu, blocked_steer, contention_ffu,
    contention_steer, "ffu_ipc -> steer_ipc")`` rows.
    """
    return [
        (name, ffu.resource_blocked_cycles, steer.resource_blocked_cycles,
         ffu.contention_cycles, steer.contention_cycles,
         f"{ffu.ipc:.3f} -> {steer.ipc:.3f}")
        for name, ffu, steer in _grid(
            workloads, ("ffu-only", "steering"), params, workers, cache
        )
    ]


def run_pipelined_scheduling(
    workloads: list[tuple[str, Program]],
    params: ProcessorParams | None = None,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[tuple[str, float, float, int]]:
    """E-SPEC: atomic vs pipelined select-free scheduling ([9]).

    Returns ``(workload, atomic_ipc, pipelined_ipc, replays)`` rows.
    """
    params = params if params is not None else _DEFAULT_PARAMS
    pipelined = dataclasses.replace(params, pipelined_scheduling=True)
    atomic = _grid(workloads, ("steering",), params, workers, cache)
    spec = _grid(workloads, ("steering",), pipelined, workers, cache)
    return [
        (name, a.ipc, s.ipc, s.scheduling_replays)
        for (name, a), (_, s) in zip(atomic, spec)
    ]


# ----------------------------------------------------------------- E-FLOW
def run_reconfig_flows(
    program: Program,
    latencies: tuple[int, ...] = (4, 16, 64),
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[tuple[int, float, float, int, int]]:
    """E-FLOW: module- vs difference-based partial reconfiguration ([8]).

    Returns ``(latency, module_ipc, difference_ipc, module_bus_cycles,
    difference_bus_cycles)`` rows.
    """
    batch = [
        SimJob("steering", program,
               ProcessorParams(reconfig_latency=latency, reconfig_mode=mode),
               label=f"latency={latency}/{mode}")
        for latency in latencies
        for mode in ("module", "difference")
    ]
    results = run_many(batch, workers, cache)
    return [
        (latency, module.ipc, diff.ipc,
         module.reconfig_bus_cycles, diff.reconfig_bus_cycles)
        for latency, module, diff in zip(latencies, results[::2], results[1::2])
    ]


# ---------------------------------------------------------------- E-BASIS
def run_basis_design(
    programs: list[Program],
    held_out: Program,
    params: ProcessorParams | None = None,
    seed: int = 1,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[tuple[str, float, float, str]]:
    """E-BASIS (§5): design a basis for the demand profile of ``programs``
    by k-means and compare it with the paper's, on the clustering
    objective and by steered IPC on the ``held_out`` program.

    Returns ``(basis, profile_cost, held_out_ipc, members)`` rows.
    """
    params = params if params is not None else _DEFAULT_PARAMS
    profile = demand_profile(programs, workers=workers, cache=cache)
    designed, designed_cost = design_basis(profile, seed=seed)
    bases = (
        ("paper", PREDEFINED_CONFIGS, profile_cost(profile, PREDEFINED_CONFIGS)),
        ("designed", designed, designed_cost),
    )
    results = run_many(
        [
            SimJob("steering-basis", held_out, params,
                   kwargs={"configs": list(basis)}, label=f"basis/{label}")
            for label, basis, _ in bases
        ],
        workers,
        cache,
    )
    return [
        (label, cost, result.ipc, " | ".join(str(c) for c in basis))
        for (label, basis, cost), result in zip(bases, results)
    ]


def table_metrics(headers: list[str], rows: list[tuple]) -> dict[str, float]:
    """A results table as a flat metric dict: ``"<column>/<row>"`` for
    every numeric cell, the row named by its first cell."""
    return {
        f"{header}/{row[0]}": value
        for row in rows
        for header, value in zip(headers[1:], row[1:])
        if isinstance(value, (int, float))
    }
