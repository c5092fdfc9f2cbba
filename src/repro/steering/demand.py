"""Demand-driven configuration synthesis (§5 extension).

The paper's closing section names two open problems: formulating an
optimal steering basis, and "the separate problem of being able to
dynamically reconfigure *without* using predefined configurations".  This
module implements the latter: instead of scoring a fixed candidate set,
the synthesizer builds a bespoke target configuration directly from the
observed demand.

Mechanism:

* the per-type required counts from the Fig. 2 requirement encoders are
  smoothed with an exponential moving average (raw 7-entry windows are far
  too noisy to retarget on);
* a greedy knapsack fills the slot budget with the units of highest
  *marginal* value — demand per already-provisioned unit of that type,
  discounted by slot cost — which is the natural relaxation of the CEM
  objective;
* hysteresis: the loader is only retargeted when the synthesized
  configuration improves the exact error against the smoothed demand by a
  margin, preventing the thrash that plagues overlapping candidate sets
  (see examples/custom_steering_basis.py).

:meth:`DemandSynthesizer.propose` runs every cycle, but the hysteresis
usually rules a retarget out before the fill is needed: every type with
demand and at least one fixed unit adds at least one cycle to any
target's error (the fill only adds units, so such a type always has one),
and when that lower bound already misses the margin the fill is skipped.
A type without fixed units is left out of the bound, since its term
``8 * demand`` can be below one cycle.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.fabric.configuration import FFU_COUNTS, Configuration
from repro.isa.futypes import FU_TYPES, FUType

__all__ = ["DemandSynthesizer", "greedy_fill", "greedy_fill_counts"]

#: slot cost per type, indexed like ``FU_TYPES``.
_SLOT_COSTS = tuple(t.slot_cost for t in FU_TYPES)
#: the smallest marginal value worth a unit (the fill's stopping rule).
_MIN_MARGINAL = 0.05
#: the marginal value of the first unit of a type with no fixed unit: it
#: outranks every unit of a type that has one, so it is taken first.
_UNPROVIDED = float("inf")


def _fill(
    demand: Sequence[float],
    free: int,
    provisioned: list[int],
    added: list[int],
    min_marginal: float,
) -> None:
    """The greedy knapsack over per-type lists indexed like ``FU_TYPES``.

    ``provisioned`` starts at the fixed units and ``added`` at zero; each
    unit the fill adds is counted in both.  A demanded type with nothing
    provisioned is worth :data:`_UNPROVIDED`.
    """
    n_types = len(_SLOT_COSTS)
    while free > 0:
        best = -1
        best_value = 0.0
        for i in range(n_types):
            cost = _SLOT_COSTS[i]
            if cost > free:
                continue
            have = provisioned[i]
            if have >= demand[i]:
                continue  # demand already saturated: more units are waste
            marginal = demand[i] / (have * cost) if have else _UNPROVIDED
            if marginal > best_value:
                best_value = marginal
                best = i
        if best < 0 or best_value < min_marginal:
            break
        provisioned[best] += 1
        added[best] += 1
        free -= _SLOT_COSTS[best]


# repro: allow[HOT001] -- measured on at most 6.6% of cycles (demand,
# window 11, checksum): once per adopted synthesis
def _sparse(added: Sequence[int]) -> dict[FUType, int]:
    """Per-type counts indexed like ``FU_TYPES`` as a dict of the nonzero."""
    return {t: n for t, n in zip(FU_TYPES, added) if n}


def greedy_fill_counts(
    demand: Sequence[float],
    n_slots: int = 8,
    ffu_counts: dict[FUType, int] | None = None,
    min_marginal: float = _MIN_MARGINAL,
) -> dict[FUType, int]:
    """Fill the slot budget greedily by marginal demand value.

    Each step adds the unit type with the highest demand per
    already-provisioned unit (discounted by slot cost), skipping types
    whose demand is already saturated; ties go to the type first in
    ``FU_TYPES``.  Returns the raw per-type counts of the types it added;
    :func:`greedy_fill` wraps them in a named :class:`Configuration`.
    """
    ffus = FFU_COUNTS if ffu_counts is None else ffu_counts
    provisioned = [ffus.get(t, 0) for t in FU_TYPES]
    added = [0] * len(FU_TYPES)
    _fill(demand, n_slots, provisioned, added, min_marginal)
    return _sparse(added)


def greedy_fill(
    demand: Sequence[float],
    n_slots: int = 8,
    ffu_counts: dict[FUType, int] | None = None,
    name: str = "synth",
    min_marginal: float = _MIN_MARGINAL,
) -> Configuration:
    """:func:`greedy_fill_counts` materialised as a named configuration.

    Shared by the demand-steering policy and the §5 basis-design search.
    """
    counts = greedy_fill_counts(
        demand, n_slots=n_slots, ffu_counts=ffu_counts, min_marginal=min_marginal
    )
    return Configuration(name, counts).validate(n_slots)


class DemandSynthesizer:
    """Synthesizes target configurations straight from observed demand."""

    def __init__(
        self,
        n_slots: int = 8,
        ffu_counts: dict[FUType, int] | None = None,
        smoothing: float = 0.1,
        improvement_margin: float = 0.15,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError("smoothing must be in (0, 1]")
        if improvement_margin < 0.0:
            raise ConfigurationError("improvement margin must be non-negative")
        self.n_slots = n_slots
        self.ffu_counts = FFU_COUNTS if ffu_counts is None else dict(ffu_counts)
        self.smoothing = smoothing
        self.improvement_margin = improvement_margin
        self._demand = [0.0] * len(FU_TYPES)
        self._synth_counter = 0
        self._ffu_list = [self.ffu_counts.get(t, 0) for t in FU_TYPES]
        #: indices of the types with at least one fixed unit.
        self._fixed_types = tuple(i for i, n in enumerate(self._ffu_list) if n)
        #: reused per-type buffers of the last synthesis (indexed like
        #: ``FU_TYPES``): fixed + synthesized units, and synthesized only,
        #: so the per-cycle synthesis and retarget check allocate nothing.
        self._provisioned = [0] * len(FU_TYPES)
        self._added = [0] * len(FU_TYPES)

    @property
    def demand(self) -> tuple[float, ...]:
        """The smoothed per-type demand estimate."""
        return tuple(self._demand)

    # repro: allow[HOT001] -- the new estimate replaces the old list whole:
    # one comprehension runs faster than updating the list index by index
    def observe(self, required: Sequence[int]) -> None:
        """Fold one cycle's required counts into the demand estimate."""
        if len(required) != len(FU_TYPES):
            raise ConfigurationError(
                f"required counts need {len(FU_TYPES)} entries, got {len(required)}"
            )
        a = self.smoothing
        self._demand = [
            (1.0 - a) * d + a * r for d, r in zip(self._demand, required)
        ]

    def _synthesize(self) -> None:
        """Greedy knapsack into the reused buffers: one synthesis event (the
        counter that names materialised configurations advances here,
        whether or not the result is ever adopted)."""
        self._synth_counter += 1
        provisioned = self._provisioned
        added = self._added
        provisioned[:] = self._ffu_list
        for i in range(len(added)):
            added[i] = 0
        _fill(self._demand, self.n_slots, provisioned, added, _MIN_MARGINAL)

    def propose(self, current_counts: Sequence[int]) -> Configuration | None:
        """One synthesis event, adopted only past the hysteresis margin.

        Returns the synthesized configuration when it beats
        ``current_counts`` (live configured units per type, fixed bank
        included) by the improvement margin, else ``None``.  This is the
        per-cycle path: it builds a :class:`Configuration` only when it
        returns one, and skips the fill when the error bound of the module
        docstring shows no synthesis could pass the margin (the event is
        still counted, so the ``demand-N`` names do not move).
        """
        current_err = self._saturated_error(current_counts)
        if current_err <= 0.0:
            self._synth_counter += 1
            return None
        threshold = current_err * (1.0 - self.improvement_margin)
        demand = self._demand
        bound = 0.0
        for i in self._fixed_types:
            if demand[i] > 1e-3:
                bound += 1.0
        if bound >= threshold:
            self._synth_counter += 1
            return None
        self._synthesize()
        if not self._saturated_error(self._provisioned) < threshold:
            return None
        return self.materialize(_sparse(self._added))

    # repro: allow[HOT003] -- measured on at most 6.6% of cycles (demand,
    # window 11, checksum): the name of each adopted synthesis
    def materialize(self, counts: dict[FUType, int]) -> Configuration:
        """Wrap RFU counts as the named, validated configuration of the
        latest synthesis event."""
        return Configuration(f"demand-{self._synth_counter}", counts).validate(
            self.n_slots
        )

    def synthesize(self) -> Configuration:
        """One synthesis event, materialised whether or not it would be
        adopted."""
        self._synthesize()
        return self.materialize(_sparse(self._added))

    def should_retarget(
        self,
        target: Configuration,
        current_counts: Sequence[int],
    ) -> bool:
        """Hysteresis: retarget only on a clear expected improvement.

        ``target`` holds RFU counts; ``current_counts`` are the live
        configured units per type (including the fixed bank).
        """
        target_counts = [
            target.count(t) + self.ffu_counts.get(t, 0) for t in FU_TYPES
        ]
        return self._improves(target_counts, current_counts)

    def _improves(
        self, target_counts: Sequence[int], current_counts: Sequence[int]
    ) -> bool:
        current_err = self._saturated_error(current_counts)
        target_err = self._saturated_error(target_counts)
        if current_err <= 0.0:
            return False
        return target_err < current_err * (1.0 - self.improvement_margin)

    def _saturated_error(self, available: Sequence[int]) -> float:
        """Queue-drain estimate: a type's term cannot drop below one cycle,
        so units beyond the demand level contribute nothing (this is what
        stops the synthesizer chasing ever-larger configurations)."""
        total = 0.0
        for demand, avail in zip(self._demand, available):
            if demand <= 1e-3:
                continue
            if avail <= 0:
                total += demand * 8.0
            else:
                total += max(1.0, demand / avail)
        return total
