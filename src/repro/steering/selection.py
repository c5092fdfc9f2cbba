"""The four-stage configuration-selection unit (Fig. 2).

Inputs each cycle: the instructions in the queue that are ready to execute,
and the number of units of each type currently configured (from the
configuration loader).  Output: a two-bit value selecting which of the four
candidates — candidate 0 is always the current configuration, candidates
1..3 the predefined steering configurations — should begin loading.

Tie-breaking follows §3.1: among equal error metrics the unit picks the
candidate requiring the least reconfiguration, which in particular means
the current configuration (distance zero) always wins its ties.  The
comparison is implemented as a single magnitude compare on the
concatenated key ``error ‖ distance`` so it remains one comparator tree in
hardware.

Stages 3 and 4 depend only on the per-type required counts, so the
simulator evaluates them from tables built at import from the gate models
(:func:`barrel_shift_right`, :func:`cem_shift_control`,
:func:`multi_operand_add` and :func:`minimum_index`):
:meth:`ConfigurationSelectionUnit.select_required` looks the CEM terms,
the Fig. 3(c) shift control, the adder and the first-minimum compare up
instead of emulating their gates.  The gate models stay the executable
specification (:meth:`ConfigurationSelectionUnit.candidate_errors`), and
:meth:`ConfigurationSelectionUnit.select` still runs stages 1 and 2 (the
unit decoders and the requirement encoders) on a queue of instructions
or binary words.  The per-cycle entry,
:meth:`ConfigurationSelectionUnit.select_demand`, takes the window's
packed per-type count and memoises its result per unit, keyed by that
count, until the configured counts change.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.circuits.adders import multi_operand_add
from repro.circuits.comparators import minimum_index
from repro.circuits.shifters import barrel_shift_right, cem_shift_control
from repro.errors import CircuitError
from repro.fabric.configuration import FFU_COUNTS, PREDEFINED_CONFIGS, Configuration
from repro.isa.futypes import COUNT_FIELD_BITS, FU_TYPES
from repro.isa.instruction import Instruction
from repro.steering.decoders import UnitDecoder
from repro.steering.error_metric import (
    COUNT_WIDTH,
    SUM_WIDTH,
    ErrorMetricGenerator,
    exact_error,
)
from repro.steering.requirements import RequirementsEncoder

__all__ = ["SelectionResult", "ConfigurationSelectionUnit", "required_of"]

#: bits used for the reconfiguration-distance field of the tie-break key.
_DISTANCE_WIDTH = 6

# ------------------------------------------------------------------ tables
_COUNT_LIMIT = (1 << COUNT_WIDTH) - 1
_SUM_LIMIT = (1 << SUM_WIDTH) - 1
#: stage 2: the encoder's output for a type with ``c`` entries in the
#: window, indexed by ``c`` modulo the popcount tree's range (its
#: ``COUNT_WIDTH + 1``-bit sum wraps before the saturation to
#: ``COUNT_WIDTH`` bits).
_ENCODER = RequirementsEncoder(COUNT_WIDTH)
_POPCOUNT_RANGE = 1 << (COUNT_WIDTH + 1)
_REQUIRED = tuple(_ENCODER([1] * c)[0] for c in range(_POPCOUNT_RANGE))
#: Fig. 3(c): the current-configuration shift for ``c`` configured units.
_SHIFT_CONTROL = tuple(cem_shift_control(c) for c in range(_COUNT_LIMIT + 1))
#: Fig. 3(b) barrel shifter: ``_SHIFTED[shift][value]``, so a candidate's
#: five shifters are five rows indexed by the required counts.
_SHIFTED = tuple(
    tuple(barrel_shift_right(v, s, COUNT_WIDTH) for v in range(_COUNT_LIMIT + 1))
    for s in range(COUNT_WIDTH)
)
#: one step of the five-operand adder: ``_ACCUMULATE[total][term]`` is
#: the truncated ``SUM_WIDTH``-bit sum the adder tree forms when it adds
#: ``term`` to the running ``total`` (operand by operand, as
#: :func:`multi_operand_add` does).
_ACCUMULATE = tuple(
    tuple(
        multi_operand_add((total, term), SUM_WIDTH, SUM_WIDTH)
        for term in range(_COUNT_LIMIT + 1)
    )
    for total in range(_SUM_LIMIT + 1)
)
#: the minimal-error select's comparator on one 6-bit field:
#: ``_BELOW[a][b]`` is 1 when ``a < b``, i.e. when :func:`minimum_index`
#: moves from ``b`` to a later ``a``.  The key ``error ‖ distance`` is
#: compared field by field, most significant (the error) first.
_BELOW = tuple(
    tuple(minimum_index((b, a), SUM_WIDTH) for b in range(_SUM_LIMIT + 1))
    for a in range(_SUM_LIMIT + 1)
)


def required_of(demand: int) -> tuple[int, ...]:
    """Stage 2 for a packed per-type count of the window's instructions
    (:data:`~repro.isa.futypes.COUNT_ONE`): the encoder's required counts,
    in canonical type order (the five fields written out)."""
    wrap = _POPCOUNT_RANGE - 1
    table = _REQUIRED
    return (
        table[demand & wrap],
        table[(demand >> COUNT_FIELD_BITS) & wrap],
        table[(demand >> (2 * COUNT_FIELD_BITS)) & wrap],
        table[(demand >> (3 * COUNT_FIELD_BITS)) & wrap],
        table[(demand >> (4 * COUNT_FIELD_BITS)) & wrap],
    )


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Outcome of one selection-unit evaluation."""

    #: two-bit output: 0 = keep the current configuration, 1..3 = begin
    #: steering toward that predefined configuration.
    index: int
    #: the chosen predefined configuration, or None when index == 0.
    config: Configuration | None
    #: 6-bit error metric of every candidate, current first.
    errors: tuple[int, ...]
    #: the stage-2 required-unit counts that drove the decision.
    required: tuple[int, ...]

    @property
    def keeps_current(self) -> bool:
        return self.index == 0


class ConfigurationSelectionUnit:
    """Fig. 2: decoders -> encoders -> CEM generators -> minimal-error select."""

    def __init__(
        self,
        configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
        ffu_counts: dict | None = None,
        queue_size: int = 7,
        use_exact_metric: bool = False,
    ) -> None:
        self.configs = tuple(configs)
        self.ffu_counts = FFU_COUNTS if ffu_counts is None else dict(ffu_counts)
        self.queue_size = queue_size
        self.use_exact_metric = use_exact_metric
        self.decoder = UnitDecoder()
        self.encoder = RequirementsEncoder()
        self._current_gen = ErrorMetricGenerator(None, self.ffu_counts)
        self._config_gens = tuple(
            ErrorMetricGenerator(c, self.ffu_counts) for c in self.configs
        )
        #: the shifter rows (``_SHIFTED``) of every predefined candidate's
        #: hard-wired shifts, and its unit counts.
        self._config_rows = tuple(
            tuple(_SHIFTED[s] for s in g.shifts_for()) for g in self._config_gens
        )
        self._config_avails = tuple(g.available_counts() for g in self._config_gens)
        #: the current candidate's shifter rows and every candidate's
        #: distance, for the configured counts in ``_inputs_counts``.
        self._inputs_counts: tuple[int, ...] | None = None
        self._current_rows: tuple[tuple[int, ...], ...] = ()
        self._current_distances: tuple[int, ...] = ()
        #: select_demand() results by packed window demand, for the
        #: configured counts in ``_memo_counts``.
        self._memo: dict[int, SelectionResult] = {}
        self._memo_counts: tuple[int, ...] | None = None

    # ------------------------------------------------------------- stages
    def required_counts(
        self, queue: Sequence[Instruction | int]
    ) -> tuple[int, ...]:
        """Stages 1+2: decode the queue and count required units per type."""
        window = list(queue)[: self.queue_size]
        onehots = [self.decoder(item) for item in window]
        return self.encoder(onehots)

    def candidate_errors(
        self,
        required: Sequence[int],
        current_counts: Sequence[int],
    ) -> tuple[int, ...]:
        """Stage 3: the error metric of every candidate, current first."""
        if self.use_exact_metric:
            # ablation mode: scaled exact division quantised to the same
            # 6-bit range the hardware metric occupies.
            errs = [exact_error(required, current_counts)] + [
                exact_error(required, avail) for avail in self._config_avails
            ]
            return tuple(min(_SUM_LIMIT, round(e)) for e in errs)
        current = self._current_gen.error(required, current_counts)
        predefined = [g.error(required) for g in self._config_gens]
        return tuple([current] + predefined)

    def _table_errors(self, required: Sequence[int]) -> tuple[int, ...]:
        """Stage 3 of the shift metric from the tables: every candidate's
        five CEM terms (one shifter row per type, indexed by the required
        count) added operand by operand from zero, current first."""
        r0, r1, r2, r3, r4 = required
        add = _ACCUMULATE
        errors = []
        for s0, s1, s2, s3, s4 in (self._current_rows, *self._config_rows):
            errors.append(
                add[add[add[add[add[0][s0[r0]]][s1[r1]]][s2[r2]]][s3[r3]]][s4[r4]]
            )
        return tuple(errors)

    def _distances(self, current_counts: Sequence[int]) -> tuple[int, ...]:
        """Reconfiguration distance of every candidate from the current state.

        Measured as the L1 distance between unit-count vectors (a cheap
        proxy for the number of slots the loader would rewrite); the
        current configuration is at distance zero by construction.
        """
        limit = (1 << _DISTANCE_WIDTH) - 1
        out = [0]
        for target in self._config_avails:
            d = sum(abs(a - b) for a, b in zip(target, current_counts))
            out.append(min(d, limit))
        return tuple(out)

    # ------------------------------------------------------------ end-to-end
    def select_required(
        self,
        required: Sequence[int],
        current_counts: Sequence[int],
    ) -> SelectionResult:
        """Stages 3 and 4 for the stage-2 required counts: the two-bit
        selection, from the tables.

        ``current_counts`` is the per-type number of units currently
        configured (fixed + loaded reconfigurable), in canonical type order
        — the loader input shown entering Fig. 2 from the right.
        """
        if len(current_counts) != len(FU_TYPES):
            raise ValueError(
                f"current_counts needs {len(FU_TYPES)} entries, got {len(current_counts)}"
            )
        required = tuple(required)
        if (
            len(required) != len(FU_TYPES)
            or min(required) < 0
            or max(required) > _COUNT_LIMIT
        ):
            raise CircuitError(
                f"required counts must be {len(FU_TYPES)} "
                f"{COUNT_WIDTH}-bit values, got {required}"
            )
        if current_counts != self._inputs_counts:
            self._inputs_counts = tuple(current_counts)
            self._current_rows = tuple(
                _SHIFTED[_SHIFT_CONTROL[min(c, _COUNT_LIMIT)]] for c in current_counts
            )
            self._current_distances = self._distances(current_counts)
        if self.use_exact_metric:
            errors = self.candidate_errors(required, current_counts)
        else:
            errors = self._table_errors(required)
        distances = self._current_distances
        # first minimum of ``error ‖ distance``: a later candidate wins
        # only when its key is strictly below the best so far
        index = 0
        best_error, best_distance = errors[0], distances[0]
        for i in range(1, len(errors)):
            error, distance = errors[i], distances[i]
            if error != best_error:
                below = _BELOW[error][best_error]
            else:
                below = _BELOW[distance][best_distance]
            if below:
                index = i
                best_error, best_distance = error, distance
        config = None if index == 0 else self.configs[index - 1]
        return SelectionResult(
            index=index, config=config, errors=errors, required=required
        )

    def select_demand(
        self, demand: int, current_counts: tuple[int, ...]
    ) -> SelectionResult:
        """:meth:`select_required` for the window's packed per-type count
        (:data:`~repro.isa.futypes.COUNT_ONE`; counting at most
        ``queue_size`` instructions is the caller's part).

        Memoised per unit by ``demand``; the memo is dropped whenever
        ``current_counts`` differs from the counts it was filled under.
        """
        if current_counts != self._memo_counts:
            self._memo.clear()
            self._memo_counts = current_counts
        result = self._memo.get(demand)
        if result is None:
            # repro: cold-call -- memo miss: bounded by the distinct
            # windows seen between two changes of the configured counts
            result = self.select_required(required_of(demand), current_counts)
            self._memo[demand] = result
        return result

    def select(
        self,
        queue: Sequence[Instruction | int],
        current_counts: Sequence[int],
    ) -> SelectionResult:
        """Run all four stages and return the two-bit selection: the
        decoders and encoders on the first ``queue_size`` entries of
        ``queue``, then :meth:`select_required`."""
        return self.select_required(self.required_counts(queue), current_counts)
