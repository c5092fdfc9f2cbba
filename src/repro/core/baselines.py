"""Processor builders, and the table that names them.

:data:`JOB_BUILDERS` is the one place a name turns into a run: every job
factory of :class:`~repro.evaluation.batch.SimJob` is a key of it, and
:func:`policy_catalogue` (the comparison points of E-IPC) is derived
from it through :func:`policy_recipes`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.core.params import ProcessorParams
from repro.core.policies import (
    DemandSteering,
    NoSteering,
    OracleSteering,
    PaperSteering,
    RandomSteering,
    StaticConfiguration,
)
from repro.core.processor import Processor
from repro.core.reference import run_reference
from repro.fabric.configuration import PREDEFINED_CONFIGS, Configuration
from repro.isa.program import Program

__all__ = [
    "JOB_BUILDERS",
    "fixed_superscalar",
    "steering_processor",
    "basis_processor",
    "static_processor",
    "random_processor",
    "oracle_processor",
    "demand_processor",
    "policy_catalogue",
    "policy_recipes",
]


def fixed_superscalar(
    program: Program, params: ProcessorParams | None = None
) -> Processor:
    """The legacy baseline: fixed functional units only, RFU slots unused."""
    return Processor(program, params=params, policy=NoSteering())


def steering_processor(
    program: Program,
    params: ProcessorParams | None = None,
    observer=None,
) -> Processor:
    """The paper's processor: CEM-based configuration steering over the
    predefined configurations (``observer`` as for
    :class:`~repro.core.processor.Processor`)."""
    return basis_processor(program, PREDEFINED_CONFIGS, params, observer)


def basis_processor(
    program: Program,
    configs: Sequence[Configuration],
    params: ProcessorParams | None = None,
    observer=None,
) -> Processor:
    """Configuration steering over ``configs`` in place of the predefined
    set (E-BASIS steers over a designed basis)."""
    policy = PaperSteering(configs=tuple(configs))
    return Processor(program, params=params, policy=policy, observer=observer)


def static_processor(
    program: Program,
    config: Configuration,
    params: ProcessorParams | None = None,
) -> Processor:
    """One predefined configuration loaded once, never changed."""
    return Processor(program, params=params, policy=StaticConfiguration(config))


def random_processor(
    program: Program,
    params: ProcessorParams | None = None,
    period: int = 200,
    seed: int = 0,
) -> Processor:
    return Processor(
        program, params=params, policy=RandomSteering(period=period, seed=seed)
    )


def demand_processor(
    program: Program,
    params: ProcessorParams | None = None,
    smoothing: float = 0.1,
    improvement_margin: float = 0.15,
) -> Processor:
    """§5 extension: predefined-configuration-free demand steering."""
    policy = DemandSteering(
        smoothing=smoothing, improvement_margin=improvement_margin
    )
    return Processor(program, params=params, policy=policy)


def oracle_processor(
    program: Program,
    params: ProcessorParams | None = None,
    lookahead: int = 64,
    max_instructions: int = 1_000_000,
) -> Processor:
    """Upper bound: steers with the program's future dynamic trace.

    The trace comes from one reference run per program, memoised on the
    program (:attr:`Program.reference_trace`): a halted run of *k*
    instructions answers every ``max_instructions`` of at least *k*.  A
    smaller budget runs the reference again, which raises
    :class:`~repro.errors.SimulationError` as it would without the memo.
    """
    trace = program.reference_trace
    if trace is None or len(trace) > max_instructions:
        trace = run_reference(program, max_instructions=max_instructions).trace
        program.reference_trace = trace
    policy = OracleSteering(trace, lookahead=lookahead)
    return Processor(program, params=params, policy=policy)


#: job factory name -> the builder it runs.  A factory's arguments are
#: its builder's parameters other than ``program``, ``params`` and
#: ``observer``: those without a default are required.
JOB_BUILDERS: dict[str, Callable[..., Any]] = {
    # the comparison points of policy_catalogue(), one each
    "ffu-only": fixed_superscalar,
    "steering": steering_processor,
    "random": random_processor,
    "oracle": oracle_processor,
    "demand": demand_processor,
    # one comparison point per configuration: "static-<name>"
    "static": static_processor,
    # steering with an observer attached; the batch engine returns what
    # the observer saw along with the result
    "steering-traced": steering_processor,
    "steering-telemetry": steering_processor,
    "steering-basis": basis_processor,
    # the functional interpreter: no parameters, no cycle budget
    "reference": run_reference,
}

def policy_recipes(
    configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
) -> dict[str, tuple[str, dict[str, Any]]]:
    """Every comparison point of E-IPC: name -> (job factory, arguments)."""
    policies = ("ffu-only", "steering", "random", "oracle", "demand")
    return {name: (name, {}) for name in policies} | {
        f"static-{cfg.name}": ("static", {"config": cfg}) for cfg in configs
    }


def policy_catalogue(
    configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
) -> dict[str, Callable[[Program, ProcessorParams | None], Processor]]:
    """Every comparison point of E-IPC, by name: ``builder(program, params)``."""
    return {
        name: lambda program, params=None, _b=JOB_BUILDERS[factory], _k=kwargs: (
            _b(program, params=params, **_k)
        )
        for name, (factory, kwargs) in policy_recipes(configs).items()
    }
