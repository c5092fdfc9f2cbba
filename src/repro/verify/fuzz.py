"""Differential policy fuzzer: ``repro fuzz --seed S --iterations N``.

Each iteration derives a program seed + generator shape from the master
seed, generates one program, executes it once on the functional
reference interpreter, then runs **every** ``policy_catalogue()`` policy
on it through one :func:`~repro.evaluation.batch.run_many` call, and
asserts the cross-policy invariants (:mod:`repro.verify.invariants`).  On
top, a metamorphic check rotates through the catalogue: when the probe of
an iteration is the steering policy, attaching an observer to the
steering processor must not change a single field of the result;
successive steering probes rotate through telemetry (series, spans and
the decision ledger), the event recorder, the steering trace and stage
profiling.

A failing iteration is minimized by the instruction-deletion shrinker
(:mod:`repro.verify.shrink`) against the policies it implicated, and —
when an output directory is given — written out as the original source,
the minimized source, a canonical-JSON violation record and a
self-contained ready-to-run repro script.

Wall-clock budgeting lives here, *outside* the deterministic core:
given the same seed and iteration count the fuzzing schedule is fully
reproducible; ``--time-budget`` only decides how far down that fixed
schedule one invocation gets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from random import Random
from typing import Any, Callable

from repro.core.baselines import policy_catalogue, steering_processor
from repro.core.params import ProcessorParams
from repro.core.reference import ReferenceResult, run_reference
from repro.core.tracing import EventRecorder, SteeringTrace
from repro.errors import ReproError
from repro.evaluation.batch import execute_job, policy_job, run_many
from repro.isa.futypes import FUType
from repro.isa.program import Program
from repro.telemetry import ProcessorTelemetry
from repro.utils.canonical import canonical_dumps
from repro.verify.generator import GeneratorConfig, generate_program, generate_source
from repro.verify.invariants import Violation, check_result_pair
from repro.verify.shrink import ShrinkOutcome, shrink_source

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz"]

#: dynamic-instruction budget for the reference run of one generated
#: program (far above the construction bound; exceeding it means the
#: generator itself is broken).
REFERENCE_BUDGET = 500_000

#: per-unit-pressure presets the schedule rotates through.
_WEIGHT_PRESETS: tuple[dict[FUType, float] | None, ...] = (
    None,  # balanced
    {FUType.INT_ALU: 0.55, FUType.INT_MDU: 0.3, FUType.LSU: 0.15},
    {FUType.INT_ALU: 0.25, FUType.LSU: 0.6, FUType.INT_MDU: 0.15},
    {
        FUType.FP_ALU: 0.35,
        FUType.FP_MDU: 0.35,
        FUType.INT_ALU: 0.2,
        FUType.LSU: 0.1,
    },
)

_FLUSH_DENSITIES = (0.0, 0.15, 0.3, 0.45)


@dataclass(frozen=True)
class FuzzFailure:
    """One failing iteration with its minimized reproducer."""

    iteration: int
    program_seed: int
    config: GeneratorConfig
    violations: tuple[Violation, ...]
    source: str
    minimized: ShrinkOutcome | None
    #: artifact paths written under the output directory (empty without one).
    artifacts: tuple[str, ...] = ()


@dataclass
class FuzzReport:
    """Outcome of one ``run_fuzz`` invocation."""

    seed: int
    iterations_requested: int
    iterations_run: int = 0
    simulations: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    #: why the loop ended: ``iterations``, ``time-budget`` or ``failure``.
    stopped: str = "iterations"

    @property
    def ok(self) -> bool:
        return not self.failures


def _iteration_config(rng: Random) -> GeneratorConfig:
    """The generator shape for one iteration (all draws seed-derived)."""
    return GeneratorConfig(
        blocks=rng.randrange(1, 4),
        body_len=rng.randrange(6, 15),
        max_iterations=rng.randrange(2, 8),
        flush_density=rng.choice(_FLUSH_DENSITIES),
        weights=rng.choice(_WEIGHT_PRESETS),
    )


def _run_policies(
    policies: list[str],
    program: Program,
    params: ProcessorParams,
    max_cycles: int,
    workers: int,
) -> tuple[dict[str, Any], list[Violation]]:
    """Results by policy via the batch engine; crashes become violations."""
    jobs = [policy_job(p, program, params, max_cycles) for p in policies]
    try:
        results = run_many(jobs, workers=workers)
        return dict(zip(policies, results)), []
    except ReproError:
        # a crash inside the batch kills the whole sweep — re-run policy
        # by policy, in this process, to attribute it
        results: dict[str, Any] = {}
        violations: list[Violation] = []
        for policy in policies:
            result, crash = _run_one(policy, program, params, max_cycles, None)
            if crash is None:
                results[policy] = result
            else:
                violations.append(crash)
        return results, violations


def _run_one(
    policy: str,
    program: Program,
    params: ProcessorParams,
    max_cycles: int,
    extra: dict[str, Callable] | None,
) -> tuple[Any, Violation | None]:
    """One policy in this process, a crash converted to a violation: an
    ``extra`` policy through its builder, a catalogue one through
    :func:`execute_job`."""
    try:
        if extra and policy in extra:
            return extra[policy](program, params).run(max_cycles=max_cycles), None
        return execute_job(policy_job(policy, program, params, max_cycles)), None
    except ReproError as exc:
        return None, Violation("crash", policy, f"{type(exc).__name__}: {exc}")


#: (invariant, what is attached, observer factory) rotated over the
#: steering probes of a fuzz run, one arm per probe.
_OBSERVER_ARMS: tuple[tuple[str, str, Callable[[], Any]], ...] = (
    ("metamorphic-telemetry", "attaching telemetry", ProcessorTelemetry),
    ("metamorphic-events", "attaching an event recorder", EventRecorder),
    ("metamorphic-steering-trace", "attaching a steering trace", SteeringTrace),
    (
        "metamorphic-profile",
        "profiling the stages",
        partial(ProcessorTelemetry, profile_stages=True),
    ),
)


def _metamorphic_checks(
    iteration: int,
    policies: list[str],
    results: dict[str, Any],
    program: Program,
    params: ProcessorParams,
    max_cycles: int,
) -> list[Violation]:
    """On iterations whose probe (rotating over ``policies``) is steering,
    an observer-on/off comparison rotating over ``_OBSERVER_ARMS``."""
    violations: list[Violation] = []
    probe = policies[iteration % len(policies)]
    if probe == "steering" and "steering" in results:
        # rotate the observer under test over the steering probes: each
        # must leave SimulationResult.to_dict() bit-identical
        invariant, what, make = _OBSERVER_ARMS[
            (iteration // len(policies)) % len(_OBSERVER_ARMS)
        ]
        instrumented = steering_processor(
            program, params, observer=make()
        ).run(max_cycles=max_cycles)
        if instrumented.to_dict() != results["steering"].to_dict():
            violations.append(
                Violation(
                    invariant, "steering", f"{what} changed the simulation result"
                )
            )
    return violations


def _still_fails_predicate(
    implicated: list[str],
    params: ProcessorParams,
    max_cycles: int,
    extra: dict[str, Callable] | None,
) -> Callable[[Program], bool]:
    """Shrink predicate: any implicated policy still violates an invariant."""

    def still_fails(candidate: Program) -> bool:
        reference = run_reference(candidate, max_instructions=REFERENCE_BUDGET)
        candidate.reference_trace = reference.trace  # the oracle's trace
        for policy in implicated:
            result, crash = _run_one(
                policy, candidate, params, max_cycles, extra
            )
            if crash is not None:
                return True
            if check_result_pair(policy, result, reference, params):
                return True
        return False

    return still_fails


def _write_artifacts(
    out_dir: Path, failure: FuzzFailure, params: ProcessorParams, max_cycles: int
) -> tuple[str, ...]:
    """Original + minimized sources, violation record, runnable repro.

    The repro script's ``PARAMS`` names every field of ``params`` that
    differs from its default (``ffu_counts`` as ``{FUType.X: n}``), so it
    replays the run's parameter point."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"fail-i{failure.iteration:04d}-s{failure.program_seed}"
    implicated = sorted({v.policy for v in failure.violations})
    minimized = failure.minimized.source if failure.minimized else failure.source
    paths = []

    source_path = out_dir / f"{stem}.s"
    source_path.write_text(failure.source + "\n")
    paths.append(str(source_path))

    min_path = out_dir / f"{stem}.min.s"
    min_path.write_text(minimized + "\n")
    paths.append(str(min_path))

    record_path = out_dir / f"{stem}.json"
    record_path.write_text(
        canonical_dumps(
            {
                "iteration": failure.iteration,
                "program_seed": failure.program_seed,
                "violations": [
                    {
                        "invariant": v.invariant,
                        "policy": v.policy,
                        "message": v.message,
                    }
                    for v in failure.violations
                ],
                "minimized_instructions": (
                    failure.minimized.instructions if failure.minimized else None
                ),
                "implicated_policies": implicated,
            },
            pretty=True,
        )
        + "\n"
    )
    paths.append(str(record_path))

    args = []
    for f in fields(ProcessorParams):
        value = getattr(params, f.name)
        if value == f.default:
            continue
        if f.name == "ffu_counts":
            pairs = ", ".join(f"FUType.{t.name}: {n}" for t, n in value.items())
            args.append(f"ffu_counts={{{pairs}}}")
        else:
            args.append(f"{f.name}={value!r}")
    repro_path = out_dir / f"{stem}.repro.py"
    repro_path.write_text(
        '"""Auto-generated fuzz reproducer — run with PYTHONPATH=src."""\n'
        "from repro.core.params import ProcessorParams\n"
        "from repro.core.baselines import policy_catalogue\n"
        "from repro.core.reference import run_reference\n"
        "from repro.isa.assembler import assemble\n"
        "from repro.isa.futypes import FUType\n"
        "from repro.verify.invariants import check_result_pair\n\n"
        f"SOURCE = '''\n{minimized}\n'''\n\n"
        f"POLICIES = {implicated!r}\n"
        f"MAX_CYCLES = {max_cycles}\n"
        f"PARAMS = ProcessorParams({', '.join(args)})\n\n"
        "program = assemble(SOURCE)\n"
        "reference = run_reference(program)\n"
        "catalogue = policy_catalogue()\n"
        "failed = False\n"
        "checked = 0\n"
        "for policy in POLICIES:\n"
        "    if policy not in catalogue:\n"
        "        print(f'{policy}: not in catalogue (injected policy?)')\n"
        "        continue\n"
        "    checked += 1\n"
        "    result = catalogue[policy](program, PARAMS).run(max_cycles=MAX_CYCLES)\n"
        "    for violation in check_result_pair(policy, result, reference, PARAMS):\n"
        "        failed = True\n"
        "        print(violation)\n"
        "if not checked:\n"
        "    print('no implicated policy is in the catalogue; re-run the fuzz '\n"
        "          'harness that injected the extra policy to reproduce')\n"
        "    raise SystemExit(2)\n"
        "# exits 1 while the bug reproduces, 0 once it is fixed\n"
        "print('reproduced' if failed else 'did not reproduce')\n"
        "raise SystemExit(1 if failed else 0)\n"
    )
    paths.append(str(repro_path))
    return tuple(paths)


def run_fuzz(
    seed: int = 0,
    iterations: int = 100,
    time_budget: float | None = None,
    *,
    params: ProcessorParams | None = None,
    max_cycles: int = 200_000,
    base_config: GeneratorConfig | None = None,
    workers: int = 0,
    out_dir: str | Path | None = None,
    shrink: bool = True,
    keep_going: bool = False,
    extra_policies: dict[str, Callable] | None = None,
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run the differential sweep; returns a :class:`FuzzReport`.

    ``extra_policies`` maps extra policy names to ``factory(program,
    params) -> Processor`` — they join the differential comparison on the
    scalar path (the mutation self-test injects a known-buggy steering
    build this way).  ``base_config`` freezes the generator shape instead
    of rotating it.
    """
    params = params if params is not None else ProcessorParams(reconfig_latency=8)
    rng = Random(seed)
    catalogue_policies = sorted(policy_catalogue())
    report = FuzzReport(seed=seed, iterations_requested=iterations)
    out_path = Path(out_dir) if out_dir is not None else None

    deadline = time.monotonic() + time_budget if time_budget is not None else None
    for iteration in range(iterations):
        if deadline is not None and time.monotonic() >= deadline:
            report.stopped = "time-budget"
            break
        # one rng draw sequence per iteration, independent of whether a
        # fixed base_config is in use — the schedule stays aligned
        program_seed = rng.getrandbits(32)
        config = _iteration_config(rng)
        if base_config is not None:
            config = base_config
        program = generate_program(program_seed, config)
        reference = run_reference(program, max_instructions=REFERENCE_BUDGET)
        # the oracle policy steers by this run's trace: recorded, it runs
        # no reference of its own
        program.reference_trace = reference.trace

        results, violations = _run_policies(
            catalogue_policies, program, params, max_cycles, workers
        )
        for name, factory in sorted((extra_policies or {}).items()):
            result, crash = _run_one(
                name, program, params, max_cycles, extra_policies
            )
            if crash is not None:
                violations.append(crash)
            else:
                results[name] = result
        report.simulations += len(results)

        for policy in sorted(results):
            violations.extend(
                check_result_pair(policy, results[policy], reference, params)
            )
        violations.extend(
            _metamorphic_checks(
                iteration, catalogue_policies, results, program, params,
                max_cycles,
            )
        )
        report.iterations_run += 1

        if not violations:
            if progress is not None and (iteration + 1) % 25 == 0:
                progress(
                    f"iteration {iteration + 1}/{iterations}: "
                    f"{report.simulations} simulations, all invariants hold"
                )
            continue

        if progress is not None:
            progress(
                f"iteration {iteration}: {len(violations)} violation(s) on "
                f"program seed {program_seed} — "
                + "; ".join(str(v) for v in violations[:3])
            )
        source = generate_source(program_seed, config)
        minimized: ShrinkOutcome | None = None
        implicated = sorted({v.policy for v in violations})
        # metamorphic failures implicate engine plumbing, not a policy's
        # semantics — shrink against the plain invariants of the policies
        # they name (falling back to the steering policy)
        shrink_targets = [p for p in implicated if p in set(results)] or ["steering"]
        if shrink:
            minimized = shrink_source(
                source,
                _still_fails_predicate(
                    shrink_targets, params, max_cycles, extra_policies
                ),
            )
            if progress is not None:
                progress(
                    f"shrunk to {minimized.instructions} instructions in "
                    f"{minimized.attempts} attempts"
                )
        failure = FuzzFailure(
            iteration=iteration,
            program_seed=program_seed,
            config=config,
            violations=tuple(violations),
            source=source,
            minimized=minimized,
        )
        if out_path is not None:
            failure = FuzzFailure(
                **{**failure.__dict__, "artifacts": _write_artifacts(
                    out_path, failure, params, max_cycles
                )}
            )
        report.failures.append(failure)
        if not keep_going:
            report.stopped = "failure"
            break
    return report
