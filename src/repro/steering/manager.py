"""The configuration manager: selection unit + loader, clocked per cycle.

Each cycle the manager

1. feeds the ready instructions and the live configured-unit counts to the
   selection unit,
2. points the loader at the chosen steering configuration (or clears the
   target when the current configuration wins), and
3. lets the loader start at most one partial reconfiguration.

Step 1 is a pure function of its two inputs, so a caller that knows they
have not changed may hand the previous :class:`SelectionResult` to
:meth:`ConfigurationManager.apply`, which runs steps 2 and 3 and counts the
cycle exactly as :meth:`ConfigurationManager.cycle` would.

It also keeps the statistics the evaluation harness reports (selection
histogram, mean selected error) and the most recent cycle's result, which
observers read (``repro.core.tracing.SteeringTrace`` turns
``last_selection`` into selection runs).  The loads it starts are
recorded once, in ``loader.history``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.fabric.configuration import PREDEFINED_CONFIGS, Configuration
from repro.fabric.fabric import Fabric
from repro.isa.instruction import Instruction
from repro.steering.loader import ConfigurationLoader
from repro.steering.selection import ConfigurationSelectionUnit, SelectionResult

__all__ = ["ManagerStats", "ConfigurationManager"]


@dataclass(slots=True)
class ManagerStats:
    """Aggregate behaviour of the configuration manager."""

    cycles: int = 0
    #: how often each candidate index (0 = current) was selected.
    selections: dict[int, int] = field(default_factory=dict)
    #: cumulative 6-bit error of the selected candidate (for mean error).
    total_selected_error: int = 0

    @property
    def mean_selected_error(self) -> float:
        return self.total_selected_error / self.cycles if self.cycles else 0.0

    @property
    def current_kept_fraction(self) -> float:
        """Fraction of cycles the current configuration was best (stability)."""
        if not self.cycles:
            return 0.0
        return self.selections.get(0, 0) / self.cycles


class ConfigurationManager:
    """Drives configuration steering for one processor instance."""

    def __init__(
        self,
        fabric: Fabric,
        configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
        use_exact_metric: bool = False,
        queue_size: int = 7,
    ) -> None:
        self.fabric = fabric
        self.selection_unit = ConfigurationSelectionUnit(
            configs=configs,
            queue_size=queue_size,
            use_exact_metric=use_exact_metric,
        )
        self.loader = ConfigurationLoader(fabric)
        self.stats = ManagerStats()
        #: candidate index selected by the most recent cycle (0 = current).
        self.last_selection: int | None = None
        #: full selection result of the most recent cycle — the frozen
        #: object the selection unit returned, kept by reference (no
        #: per-cycle allocation) for the telemetry decision ledger.
        self.last_result: SelectionResult | None = None
        #: 6-bit CEM error of the winning candidate in the most recent cycle.
        self.last_error: int = 0

    def cycle(self, ready_queue: Sequence[Instruction]) -> SelectionResult:
        """One clock of the manager.  ``ready_queue`` holds the unscheduled
        instructions the selection unit inspects (at most the queue size)."""
        counts = self.loader.current_counts()
        return self.apply(self.selection_unit.select(ready_queue, counts))

    def apply(self, result: SelectionResult) -> SelectionResult:
        """One clock of the manager with this cycle's selection already
        made: steer the loader toward it and count it."""
        loader = self.loader
        loader.set_target(result.config)
        loader.step()

        index = result.index
        if result is not self.last_result:
            self.last_selection = index
            self.last_result = result
            self.last_error = result.errors[index]
        stats = self.stats
        stats.cycles += 1
        stats.selections[index] = stats.selections.get(index, 0) + 1
        stats.total_selected_error += self.last_error
        return result
