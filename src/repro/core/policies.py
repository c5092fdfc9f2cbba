"""Steering policies: the paper's configuration manager and the baselines.

A policy decides, each cycle, what the reconfigurable fabric should steer
toward.  The processor calls :meth:`SteeringPolicy.cycle` once per clock
with its register update unit; a policy reads from it only what it needs —
the ready-unscheduled instruction queue (what the Fig. 2 selection unit
sees) or the dynamic retire count (the oracle) — so the queue is built
only for policies that inspect it.

Policies:

* :class:`PaperSteering` — the contribution: CEM-based selection among
  {current, three predefined configurations} with busy-aware partial
  reconfiguration;
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

from repro.fabric.configuration import FFU_COUNTS, PREDEFINED_CONFIGS, Configuration
from repro.fabric.fabric import Fabric
from repro.isa.futypes import FU_TYPES, FUType
from repro.sched.ruu import RegisterUpdateUnit
from repro.steering.error_metric import exact_error
from repro.steering.loader import ConfigurationLoader
from repro.steering.manager import ConfigurationManager

__all__ = [
    "SteeringPolicy",
    "PaperSteering",
    "NoSteering",
    "StaticConfiguration",
    "RandomSteering",
    "OracleSteering",
    "DemandSteering",
]


class SteeringPolicy:
    """Base class: a no-op policy."""

    name = "base"

    def bind(self, fabric: Fabric) -> None:
        """Attach to the processor's fabric before simulation starts."""
        self.fabric = fabric

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        """One clock of the policy, given the processor's RUU."""

    def describe(self) -> str:
        return self.name


class NoSteering(SteeringPolicy):
    """Fixed functional units only — the static legacy baseline."""

    name = "ffu-only"


class PaperSteering(SteeringPolicy):
    """The paper's configuration manager (Figs. 2 and 3)."""

    name = "steering"

    def __init__(
        self,
        configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
        use_exact_metric: bool = False,
        queue_size: int = 7,
    ) -> None:
        self.configs = tuple(configs)
        self.use_exact_metric = use_exact_metric
        self.queue_size = queue_size
        self.manager: ConfigurationManager | None = None
        if use_exact_metric:
            self.name = "steering-exact"

    def bind(self, fabric: Fabric) -> None:
        super().bind(fabric)
        self.manager = ConfigurationManager(
            fabric,
            configs=self.configs,
            use_exact_metric=self.use_exact_metric,
            queue_size=self.queue_size,
        )

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        self.manager.cycle(ruu.ready_unscheduled())

    def describe(self) -> str:
        kind = "exact" if self.use_exact_metric else "shift-approximate"
        return f"{self.name} (CEM={kind}, {len(self.configs)} steering configs)"


class StaticConfiguration(SteeringPolicy):
    """Load one configuration at start-up, then never reconfigure."""

    def __init__(self, config: Configuration) -> None:
        self.config = config
        self.name = f"static-{config.name}"
        self.loader: ConfigurationLoader | None = None
        #: set once the target is loaded and the bus is free: the loader
        #: never evicts without a pending load, so every later cycle
        #: would be a no-op.
        self._settled = False

    def bind(self, fabric: Fabric) -> None:
        super().bind(fabric)
        self.loader = ConfigurationLoader(fabric)
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
        self.configs = tuple(configs)
        self.period = period
        self._rng = random.Random(seed)
        self._countdown = 0
        self.loader: ConfigurationLoader | None = None

    def bind(self, fabric: Fabric) -> None:
        super().bind(fabric)
        self.loader = ConfigurationLoader(fabric)

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
    (hysteresis), so it does not thrash the configuration bus.
    """

    name = "demand"

    def __init__(
        self,
        smoothing: float = 0.1,
        improvement_margin: float = 0.15,
        queue_size: int = 7,
    ) -> None:
        from repro.steering.decoders import UnitDecoder
        from repro.steering.demand import DemandSynthesizer
        from repro.steering.requirements import RequirementsEncoder

        self.queue_size = queue_size
        self._decoder = UnitDecoder()
        self._encoder = RequirementsEncoder()
        self.synthesizer = DemandSynthesizer(
            smoothing=smoothing, improvement_margin=improvement_margin
        )
        self.loader: ConfigurationLoader | None = None
        #: synthesized targets adopted over the run (for tracing/tests).
        self.retargets: list[Configuration] = []
        #: per-cycle scratch for the decoded window (the encoder only
        #: iterates it), so cycle() allocates nothing.
        self._scratch_onehots: list[int] = []
        #: packed window -> encoder output.  The gate-level encoder is a
        #: pure function of the one-hot window, and a run sees few windows.
        self._required_memo: dict[int, tuple[int, ...]] = {}

    def bind(self, fabric: Fabric) -> None:
        super().bind(fabric)
        self.loader = ConfigurationLoader(fabric)

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        ready = ruu.ready_unscheduled()
        onehots = self._scratch_onehots
        onehots.clear()
        key = 1  # leading sentinel keeps the packing injective
        for k in range(min(len(ready), self.queue_size)):
            onehot = self._decoder(ready[k])
            onehots.append(onehot)
            key = (key << len(FU_TYPES)) | onehot
        required = self._required_memo.get(key)
        if required is None:
            # repro: cold-call -- memo-miss path: bounded by distinct
            # windows, not cycles
            required = self._encoder(onehots)
            self._required_memo[key] = required
        self.synthesizer.observe(required)
        counts = self.synthesizer.synthesize_counts()
        if self.synthesizer.should_retarget_counts(
            counts, self.loader.current_counts()
        ):
            # repro: cold-call -- retarget adoption: bounded by accepted
            # reconfigurations (hysteresis-gated), not cycles
            target = self.synthesizer.materialize(counts)
            self.loader.set_target(target)
            self.retargets.append(target)
        elif self.loader.satisfied:
            self.loader.set_target(None)
        self.loader.step()

    def describe(self) -> str:
        return (
            f"{self.name} (predefined-config-free synthesis, "
            f"smoothing={self.synthesizer.smoothing})"
        )


class OracleSteering(SteeringPolicy):
    """Steer using future knowledge of the dynamic instruction stream.

    ``trace`` is the functional-unit-type sequence of the program's dynamic
    execution (from a profiling run).  Each cycle the oracle inspects the
    next ``lookahead`` instructions beyond the current retire point,
    computes the exact error of every candidate, and targets the best.
    """

    name = "oracle"

    def __init__(
        self,
        trace: Sequence[FUType],
        configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
        lookahead: int = 64,
    ) -> None:
        self.trace = list(trace)
        self.configs = tuple(configs)
        self.lookahead = lookahead
        self.loader: ConfigurationLoader | None = None
        # candidate availability vectors never change after construction;
        # computing them here keeps cycle() allocation-free
        self._config_avails = tuple(
            tuple(cfg.count(t) + FFU_COUNTS.get(t, 0) for t in FU_TYPES)
            for cfg in self.configs
        )
        self._type_index = {ty: i for i, ty in enumerate(FU_TYPES)}
        self._window_counts = [0] * len(FU_TYPES)

    def bind(self, fabric: Fabric) -> None:
        super().bind(fabric)
        self.loader = ConfigurationLoader(fabric)

    def _window_required(self, retired: int) -> tuple[int, ...]:
        counts = self._window_counts
        for i in range(len(counts)):
            counts[i] = 0
        type_index = self._type_index
        trace = self.trace
        for pos in range(retired, min(retired + self.lookahead, len(trace))):
            index = type_index.get(trace[pos])
            if index is not None:
                counts[index] += 1
        return tuple(counts)

    def cycle(self, ruu: RegisterUpdateUnit) -> None:
        required = self._window_required(ruu.retired)
        if sum(required) == 0:
            self.loader.set_target(None)
            self.loader.step()
            return
        current = self.loader.current_counts()
        best_config: Configuration | None = None
        best_err = exact_error(required, current)
        for cfg, avail in zip(self.configs, self._config_avails):
            err = exact_error(required, avail)
            if err < best_err:
                best_err = err
                best_config = cfg
        self.loader.set_target(best_config)
        self.loader.step()
