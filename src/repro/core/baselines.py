"""Processor factories for the evaluation's policy comparison (E-IPC)."""

from __future__ import annotations

from collections.abc import Callable, Sequence

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
    "fixed_superscalar",
    "steering_processor",
    "static_processor",
    "random_processor",
    "oracle_processor",
    "demand_processor",
    "policy_catalogue",
]


def fixed_superscalar(
    program: Program, params: ProcessorParams | None = None
) -> Processor:
    """The legacy baseline: fixed functional units only, RFU slots unused."""
    return Processor(program, params=params, policy=NoSteering())


def steering_processor(
    program: Program,
    params: ProcessorParams | None = None,
    use_exact_metric: bool = False,
    observer=None,
) -> Processor:
    """The paper's processor: CEM-based configuration steering (``observer``
    as for :class:`~repro.core.processor.Processor`)."""
    params = params if params is not None else ProcessorParams()
    policy = PaperSteering(
        use_exact_metric=use_exact_metric or params.use_exact_metric,
        queue_size=params.window_size,
    )
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
    params = params if params is not None else ProcessorParams()
    policy = DemandSteering(
        smoothing=smoothing,
        improvement_margin=improvement_margin,
        queue_size=params.window_size,
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


def policy_catalogue(
    configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
) -> dict[str, Callable[[Program, ProcessorParams | None], Processor]]:
    """Every comparison point of the E-IPC experiment, by name."""
    catalogue: dict[str, Callable] = {
        "ffu-only": fixed_superscalar,
        "steering": steering_processor,
        "random": random_processor,
        "oracle": oracle_processor,
        "demand": demand_processor,
    }
    for cfg in configs:
        catalogue[f"static-{cfg.name}"] = (
            lambda program, params=None, _c=cfg: static_processor(program, _c, params)
        )
    return catalogue
