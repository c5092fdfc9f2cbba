"""Steering policies: the paper's configuration manager and the baselines.

A policy decides, each cycle, what the reconfigurable fabric should steer
toward.  The processor binds it to its fabric and its
:class:`~repro.core.params.ProcessorParams` once, then calls
:meth:`SteeringPolicy.cycle` once per clock with its register update unit;
a policy reads from it only what it needs — the per-type demand of the
ready-unscheduled window (the RUU's packed ``waiting_demand``: the Fig. 2
selection unit inspects the whole wake-up array, ``window_size`` entries)
or the dynamic retire count (the oracle) — and does work only when an
input moved.  The paper's selection is a lookup in one table per run,
keyed by that demand and the configured counts (the selection unit itself
is stateless), the oracle's choice a lookup keyed by its window and the
configured counts, and the loader searches a blocked placement again only
when the target, the slots or an RFU's busy state moved.

Policies:

* :class:`PaperSteering` — the contribution, the paper's configuration
  manager: the Fig. 2 selection unit (CEM-based selection among
  {current, three predefined configurations}, under the error metric
  ``use_exact_metric`` picks), the loader it clocks every cycle
  (busy-aware partial reconfiguration) and the steering statistics;
* :class:`NoSteering` — fixed functional units only (the RFU slots stay
  empty): the legacy-processor baseline;
* :class:`StaticConfiguration` — one predefined configuration loaded at
  start-up and never changed (what a non-steering reconfigurable processor
  in the style of [7], configured once, would achieve);
* :class:`RandomSteering` — retargets a uniformly random predefined
  configuration on a fixed period: a lower bound showing that *matched*
  steering, not reconfiguration per se, provides the benefit;
* :class:`OracleSteering` — looks at the *future* dynamic instruction
  stream (a profiling trace) and always steers toward the exact-error
  optimum: an upper bound on what any reactive selector can achieve.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.core.params import ProcessorParams
from repro.errors import ConfigurationError
from repro.fabric.configuration import FFU_COUNTS, PREDEFINED_CONFIGS, Configuration
from repro.fabric.fabric import Fabric
from repro.isa.futypes import FU_TYPES, FUType
from repro.sched.ruu import RegisterUpdateUnit
from repro.steering.demand import DemandSynthesizer
from repro.steering.error_metric import exact_error
from repro.steering.loader import ConfigurationLoader
from repro.steering.selection import (
    ConfigurationSelectionUnit,
    SelectionResult,
    required_of,
)

__all__ = [
    "SteeringPolicy",
    "PaperSteering",
    "NoSteering",
    "StaticConfiguration",
    "RandomSteering",
    "OracleSteering",
    "DemandSteering",
]


#: the oracle's choice memo marks a key it has not seen with this.
_UNCHOSEN = object()


class SteeringPolicy:
    """Base class: a no-op policy.

    Binding gives every policy its fabric and its one
    :class:`~repro.steering.loader.ConfigurationLoader`, whose ``history``
    records the loads the policy starts.  ``last_result`` is the selection
    the paper's unit made in the latest cycle; it stays ``None`` for every
    policy without that unit.
    """

    name = "base"
    last_result: SelectionResult | None = None

    def bind(self, fabric: Fabric, params: ProcessorParams) -> None:
        """Attach to the processor's fabric and parameters before
        simulation starts."""
        self.fabric = fabric
        self.loader = ConfigurationLoader(fabric)

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        """One clock of the policy, given the processor's RUU."""

    def describe(self) -> str:
        return self.name


class NoSteering(SteeringPolicy):
    """Fixed functional units only — the static legacy baseline."""

    name = "ffu-only"


class PaperSteering(SteeringPolicy):
    """The paper's configuration manager (Figs. 2 and 3): the selection
    unit, the loader it clocks every cycle and the steering statistics.

    The error metric is the processor's: binding reads
    ``params.use_exact_metric`` and names the policy ``steering-exact``
    when it is set.  The selection unit is a pure function of the window's
    packed demand and the configured counts, so each answer is kept in
    ``_choices`` under both and looked up when the run meets them again;
    the lookup itself is made only when an input moved.  Each cycle the
    loader is pointed at the selection's configuration (``None`` when the
    current configuration wins) and starts at most one partial
    reconfiguration; ``selections`` counts the cycles each candidate index
    (0 = current) was selected and ``selected_error`` sums the selected
    candidates' errors.
    """

    name = "steering"

    def __init__(
        self, configs: Sequence[Configuration] = PREDEFINED_CONFIGS
    ) -> None:
        self.configs = tuple(configs)
        self.use_exact_metric = False

    def bind(self, fabric: Fabric, params: ProcessorParams) -> None:
        super().bind(fabric, params)
        self.use_exact_metric = params.use_exact_metric
        self.name = "steering-exact" if self.use_exact_metric else "steering"
        # the candidates are scored with the processor's fixed bank
        self._unit = ConfigurationSelectionUnit(
            configs=self.configs, ffu_counts=params.ffu_counts,
            use_exact_metric=self.use_exact_metric,
        )
        #: the inputs of the last selection (``last_result``): the
        #: window's packed demand and the configured counts.
        self._demand_seen = -1
        self._counts_seen: tuple[int, ...] = ()
        #: (packed demand, configured counts) -> the unit's selection.
        self._choices: dict[tuple, SelectionResult] = {}
        self.last_result = None
        self.selections: dict[int, int] = {}
        self.selected_error = 0

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        counts = self.fabric.counts_tuple()
        demand = ruu.waiting_demand
        if demand != self._demand_seen or counts != self._counts_seen:
            self._demand_seen = demand
            self._counts_seen = counts
            key = (demand, counts)
            result = self._choices.get(key)
            if result is None:
                result = self._choices[key] = self._unit.select_demand(
                    demand, counts
                )
            self.last_result = result
        result = self.last_result
        loader = self.loader
        loader.set_target(result.config)
        loader.step()
        index = result.index
        selections = self.selections
        selections[index] = selections.get(index, 0) + 1
        self.selected_error += result.errors[index]

    def describe(self) -> str:
        kind = "exact" if self.use_exact_metric else "shift-approximate"
        return f"{self.name} (CEM={kind}, {len(self.configs)} steering configs)"


class StaticConfiguration(SteeringPolicy):
    """Load one configuration at start-up, then never reconfigure."""

    def __init__(self, config: Configuration) -> None:
        self.config = config
        self.name = f"static-{config.name}"
        #: set once the target is loaded and the bus is free: the loader
        #: never evicts without a pending load, so every later cycle
        #: would be a no-op.
        self._settled = False

    def bind(self, fabric: Fabric, params: ProcessorParams) -> None:
        super().bind(fabric, params)
        self.loader.set_target(self.config)
        self._settled = False

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        if self._settled:
            return
        if not self.loader.satisfied or not self.fabric.rfus.bus_free:
            self.loader.step()
        else:
            self._settled = True


class RandomSteering(SteeringPolicy):
    """Retarget a random predefined configuration every ``period`` cycles."""

    name = "random"

    def __init__(
        self,
        configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
        period: int = 200,
        seed: int = 0,
    ) -> None:
        if period < 1:
            raise ConfigurationError(f"period must be at least 1, got {period}")
        self.configs = tuple(configs)
        self.period = period
        self._rng = random.Random(seed)
        self._countdown = 0

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        if self._countdown == 0:
            self.loader.set_target(self._rng.choice(self.configs))
            self._countdown = self.period
        self._countdown -= 1
        self.loader.step()


class DemandSteering(SteeringPolicy):
    """§5 extension: steer without predefined configurations.

    Synthesizes a bespoke target configuration from smoothed demand via
    :class:`repro.steering.demand.DemandSynthesizer` — the paper's
    "dynamically reconfigure without using predefined configurations"
    open problem.  Retargets only on a clear expected improvement
    (hysteresis), so it does not thrash the configuration bus.  The
    synthesizer is built when the policy binds, for the processor's slot
    budget (``params.n_slots``) and fixed bank (``params.ffu_counts``).
    """

    name = "demand"

    def __init__(
        self,
        smoothing: float = 0.1,
        improvement_margin: float = 0.15,
    ) -> None:
        self.smoothing = smoothing
        self.improvement_margin = improvement_margin
        self.synthesizer: DemandSynthesizer | None = None

    def bind(self, fabric: Fabric, params: ProcessorParams) -> None:
        super().bind(fabric, params)
        self.synthesizer = DemandSynthesizer(
            n_slots=params.n_slots,
            ffu_counts=params.ffu_counts,
            smoothing=self.smoothing,
            improvement_margin=self.improvement_margin,
        )
        #: the window's required counts and the packed demand they encode.
        self._required: tuple[int, ...] = required_of(0)
        self._demand_seen = 0

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        demand = ruu.waiting_demand
        if demand != self._demand_seen:
            self._demand_seen = demand
            self._required = required_of(demand)
        self.synthesizer.observe(self._required)
        target = self.synthesizer.propose(self.fabric.counts_tuple())
        if target is not None:
            self.loader.set_target(target)
        elif self.loader.satisfied:
            self.loader.set_target(None)
        self.loader.step()

    def describe(self) -> str:
        return (
            f"{self.name} (predefined-config-free synthesis, "
            f"smoothing={self.smoothing})"
        )


class OracleSteering(SteeringPolicy):
    """Steer using future knowledge of the dynamic instruction stream.

    ``trace`` is the functional-unit-type sequence of the program's dynamic
    execution (from a profiling run).  Each cycle the oracle inspects the
    next ``lookahead`` instructions beyond the current retire point,
    computes the exact error of every candidate, and targets the best.

    The window's per-type counts slide with the retire point (the types
    leaving it are subtracted, the ones entering added), the choice is
    looked up only when the retire point or the configured counts moved,
    and it is memoised on the window's counts and the configured counts.
    """

    name = "oracle"

    def __init__(
        self,
        trace: Sequence[FUType],
        configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
        lookahead: int = 64,
    ) -> None:
        if lookahead < 1:
            raise ConfigurationError(
                f"lookahead must be at least 1, got {lookahead}"
            )
        self.trace = list(trace)
        self.configs = tuple(configs)
        self.lookahead = lookahead
        self._type_index = {ty: i for i, ty in enumerate(FU_TYPES)}
        self._reset_window()

    def _reset_window(self) -> None:
        #: per-type counts of ``trace[_window_lo:_window_hi]``.
        self._window_counts = [0] * len(FU_TYPES)
        self._window_lo = 0
        self._window_hi = 0

    def bind(self, fabric: Fabric, params: ProcessorParams) -> None:
        super().bind(fabric, params)
        # every candidate's units: its own plus the processor's fixed bank,
        # computed once here so cycle() allocates nothing
        ffus = FFU_COUNTS if params.ffu_counts is None else params.ffu_counts
        self._config_avails = tuple(
            tuple(cfg.count(t) + ffus.get(t, 0) for t in FU_TYPES)
            for cfg in self.configs
        )
        self._reset_window()
        #: the last choice and its inputs: retire count, configured counts.
        self._target: Configuration | None = None
        self._retired_seen = -1
        self._counts_seen: tuple[int, ...] = ()
        #: (window counts, configured counts) -> the choice.
        self._choices: dict[tuple, Configuration | None] = {}

    def _window_required(self, retired: int) -> tuple[int, ...]:
        """Per-type counts of the ``lookahead`` trace entries from
        ``retired`` on (fewer at the trace's tail).  ``retired`` never
        decreases between binds, so the window only slides forward."""
        counts = self._window_counts
        type_index = self._type_index
        trace = self.trace
        lo, hi = self._window_lo, self._window_hi
        new_hi = min(retired + self.lookahead, len(trace))
        for pos in range(lo, min(retired, hi)):  # leaving the window
            index = type_index.get(trace[pos])
            if index is not None:
                counts[index] -= 1
        for pos in range(max(hi, retired), new_hi):  # entering it
            index = type_index.get(trace[pos])
            if index is not None:
                counts[index] += 1
        self._window_lo, self._window_hi = retired, new_hi
        return tuple(counts)

    def _best(self, required: tuple[int, ...], current) -> Configuration | None:
        """The candidate of least exact error (``None``: keep current)."""
        if sum(required) == 0:
            return None
        best_config: Configuration | None = None
        best_err = exact_error(required, current)
        for cfg, avail in zip(self.configs, self._config_avails):
            err = exact_error(required, avail)
            if err < best_err:
                best_err = err
                best_config = cfg
        return best_config

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        current = self.fabric.counts_tuple()
        if ruu.retired != self._retired_seen or current != self._counts_seen:
            self._retired_seen = ruu.retired
            self._counts_seen = current
            key = (self._window_required(ruu.retired), current)
            target = self._choices.get(key, _UNCHOSEN)
            if target is _UNCHOSEN:
                target = self._choices[key] = self._best(*key)
            self._target = target
        self.loader.set_target(self._target)
        self.loader.step()
