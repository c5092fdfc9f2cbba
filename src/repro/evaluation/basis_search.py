"""Steering-basis design (§5: "how to formulate an optimal basis").

Choosing the predefined steering configurations is a clustering problem:
the demand vectors a workload population produces must each be served well
by *some* basis member.  This module implements exactly that view:

* :func:`demand_profile` samples per-window required-unit vectors from a
  program's dynamic trace (what the Fig. 2 encoders would see);
* :func:`design_basis` runs Lloyd-style k-means in configuration space —
  assign each demand sample to its best-serving configuration, then
  re-synthesize each configuration greedily from its cluster's mean demand
  — with multi-start (including the paper's basis as one start), so the
  returned basis never scores worse on the profile than the paper's.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import ConfigurationError
from repro.evaluation.batch import SimJob, run_many
from repro.fabric.configuration import (
    FFU_COUNTS,
    NUM_RFU_SLOTS,
    PREDEFINED_CONFIGS,
    Configuration,
)
from repro.isa.futypes import FU_TYPES
from repro.isa.program import Program
from repro.steering.demand import greedy_fill
from repro.steering.error_metric import exact_error

__all__ = ["demand_profile", "profile_cost", "design_basis"]


def demand_profile(
    programs: Sequence[Program],
    run: Callable[[list[SimJob]], list[Any]] = run_many,
    window: int = 7,
    stride: int = 4,
    max_instructions: int = 200_000,
) -> list[tuple[int, ...]]:
    """Required-unit vectors over sliding windows of the dynamic traces,
    whose reference runs the batch runner ``run`` executes."""
    if window <= 0 or stride <= 0:
        raise ConfigurationError("window and stride must be positive")
    references = run([
        SimJob("reference", p, kwargs={"max_instructions": max_instructions})
        for p in programs
    ])
    profile: list[tuple[int, ...]] = []
    for reference in references:
        trace = reference.trace
        for start in range(0, max(1, len(trace) - window + 1), stride):
            chunk = trace[start : start + window]
            profile.append(
                tuple(sum(1 for t in chunk if t is ty) for ty in FU_TYPES)
            )
    if not profile:
        raise ConfigurationError("empty demand profile")
    return profile


def profile_cost(
    profile: Sequence[Sequence[int]],
    basis: Sequence[Configuration],
    ffu_counts: dict | None = None,
) -> float:
    """Mean best-candidate exact error over the profile (lower = better)."""
    ffus = FFU_COUNTS if ffu_counts is None else ffu_counts
    avails = [c.units(ffus) for c in basis]
    total = 0.0
    for required in profile:
        total += min(exact_error(required, a) for a in avails)
    return total / len(profile)


def _lloyd_iterate(
    profile: Sequence[Sequence[int]],
    basis: list[Configuration],
    ffus: dict,
    iterations: int,
) -> list[Configuration]:
    for round_no in range(iterations):
        avails = [c.units(ffus) for c in basis]
        sums = [[0.0] * len(FU_TYPES) for _ in basis]
        sizes = [0] * len(basis)
        for required in profile:
            errors = [exact_error(required, a) for a in avails]
            k = errors.index(min(errors))
            sizes[k] += 1
            for i, r in enumerate(required):
                sums[k][i] += r
        new_basis = []
        changed = False
        for k, cfg in enumerate(basis):
            if sizes[k] == 0:
                new_basis.append(cfg)  # empty cluster: keep the member
                continue
            mean_demand = [s / sizes[k] for s in sums[k]]
            candidate = greedy_fill(
                mean_demand,
                n_slots=NUM_RFU_SLOTS,
                ffu_counts=ffus,
                name=f"designed{k}",
            )
            if candidate.counts != cfg.counts:
                changed = True
            new_basis.append(candidate)
        basis = new_basis
        if not changed:
            break
    return basis


def design_basis(
    profile: Sequence[Sequence[int]],
    n_configs: int = 3,
    iterations: int = 10,
    restarts: int = 4,
    seed: int = 0,
    ffu_counts: dict | None = None,
) -> tuple[list[Configuration], float]:
    """Search for a steering basis minimising :func:`profile_cost`.

    Multi-start Lloyd iterations; the paper's basis seeds one start when
    ``n_configs == 3``, so the result is never worse than the paper's on
    the given profile.  Returns ``(basis, cost)``.
    """
    if n_configs <= 0:
        raise ConfigurationError("n_configs must be positive")
    ffus = FFU_COUNTS if ffu_counts is None else ffu_counts
    rng = random.Random(seed)

    starts: list[list[Configuration]] = []
    if n_configs == len(PREDEFINED_CONFIGS):
        starts.append(list(PREDEFINED_CONFIGS))
    for _ in range(restarts):
        seeds = rng.sample(list(profile), min(n_configs, len(profile)))
        while len(seeds) < n_configs:
            seeds.append(rng.choice(list(profile)))
        starts.append(
            [
                greedy_fill(list(map(float, s)), NUM_RFU_SLOTS, ffus, f"seed{i}")
                for i, s in enumerate(seeds)
            ]
        )

    best_basis: list[Configuration] | None = None
    best_cost = float("inf")
    for start in starts:
        basis = _lloyd_iterate(profile, list(start), ffus, iterations)
        for candidate in (start, basis):  # a start may already be optimal
            cost = profile_cost(profile, candidate, ffus)
            if cost < best_cost:
                best_cost = cost
                best_basis = list(candidate)
    assert best_basis is not None
    return best_basis, best_cost
