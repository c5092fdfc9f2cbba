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

The hardware is the gate netlist of :mod:`repro.circuits.selection_netlist`.
The simulator evaluates it from lookup tables that are truth tables of
that netlist's blocks, built at import: the requirement encoder, the
Fig. 3(c) CEM term, one step of the CEM adder and the select's
comparator.  Stage 1 is the instruction's ``fu_type``: the queue is
counted into the packed per-type demand
(:data:`~repro.isa.futypes.COUNT_ONE`), and :func:`required_of` applies
the encoders to it.  The per-cycle entry,
:meth:`ConfigurationSelectionUnit.select_demand`, takes that packed count.

Like the hardware, the unit is combinational: a pure function of its two
inputs that keeps no state between calls.  Reusing an answer is the
caller's part (:class:`~repro.core.policies.PaperSteering` keeps one
table keyed by both inputs for its run).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.circuits.netlist import Netlist, build_less_than
from repro.circuits.selection_netlist import (
    COUNT_WIDTH,
    DISTANCE_WIDTH,
    SUM_WIDTH,
    build_accumulator,
    build_cem_term,
    build_requirement_encoder,
)
from repro.errors import CircuitError
from repro.fabric.configuration import FFU_COUNTS, PREDEFINED_CONFIGS, Configuration
from repro.isa.futypes import COUNT_FIELD_BITS, COUNT_ONE, FU_TYPES
from repro.isa.instruction import Instruction
from repro.steering.error_metric import exact_error

__all__ = ["SelectionResult", "ConfigurationSelectionUnit", "required_of"]

# ------------------------------------------------------------------ tables
_COUNT_LIMIT = (1 << COUNT_WIDTH) - 1
_SUM_LIMIT = (1 << SUM_WIDTH) - 1
_DISTANCE_LIMIT = (1 << DISTANCE_WIDTH) - 1


def _truth_rows(build, row_width: int, column_width: int) -> tuple[tuple[int, ...], ...]:
    """The truth table of ``build(nl, column_bus, row_bus)`` as
    ``rows[row][column]``: one bit-sliced evaluation of the block."""
    nl = Netlist()
    column = nl.input_bus("column", column_width)
    row = nl.input_bus("row", row_width)
    nl.output_bus("out", build(nl, column, row))
    values = nl.truth_table()["out"]
    n = 1 << column_width
    return tuple(tuple(values[i : i + n]) for i in range(0, len(values), n))


def _required_table() -> tuple[int, ...]:
    """Stage 2: the encoder's output for ``c`` entries of one type, for
    every ``c`` its 4-bit popcount distinguishes."""
    nl = Netlist()
    column = nl.input_bus("column", (1 << (COUNT_WIDTH + 1)) - 1)
    nl.output_bus("count", build_requirement_encoder(nl, column))
    return tuple(
        nl.evaluate(column=(1 << c) - 1)["count"] for c in range(len(column) + 1)
    )


#: stage 2: the required count for a type with ``c`` entries in the
#: window, indexed by ``c`` modulo the popcount's range.
_REQUIRED = _required_table()
_POPCOUNT_MASK = len(_REQUIRED) - 1
#: Fig. 3(c): ``_TERMS[count][required]`` is the CEM term of a type with
#: ``required`` entries and ``count`` configured units.  A candidate's five
#: term rows are indexed by its (live or constant) unit counts.
_TERMS = _truth_rows(build_cem_term, COUNT_WIDTH, COUNT_WIDTH)
#: one step of the five-operand adder: ``_ACCUMULATE[total][term]`` is
#: the truncated ``SUM_WIDTH``-bit sum the adder forms when it adds
#: ``term`` to the running ``total``.
_ACCUMULATE = _truth_rows(
    lambda nl, term, total: build_accumulator(nl, total, term), SUM_WIDTH, COUNT_WIDTH
)
#: the minimal-error select's comparator on one 6-bit field:
#: ``_BELOW[a][b]`` is 1 when ``a < b``, i.e. when the select moves from
#: ``b`` to a later ``a``.  The key ``error ‖ distance`` is compared field
#: by field, most significant (the error) first.
_BELOW = _truth_rows(
    lambda nl, b, a: [build_less_than(nl, a, b)], SUM_WIDTH, SUM_WIDTH
)


def required_of(demand: int) -> tuple[int, ...]:
    """Stage 2 for a packed per-type count of the window's instructions
    (:data:`~repro.isa.futypes.COUNT_ONE`): the encoder's required counts,
    in canonical type order (the five fields written out)."""
    wrap = _POPCOUNT_MASK
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
        use_exact_metric: bool = False,
    ) -> None:
        self.configs = tuple(configs)
        self.ffu_counts = FFU_COUNTS if ffu_counts is None else dict(ffu_counts)
        self.use_exact_metric = use_exact_metric
        #: every predefined candidate's unit counts (fixed + its own) and
        #: its term rows (``_TERMS``): a hard-wired generator is the live
        #: one with its count inputs tied to those counts.
        self._config_avails = tuple(c.units(self.ffu_counts) for c in self.configs)
        self._config_rows = tuple(
            tuple(_TERMS[min(a, _COUNT_LIMIT)] for a in avail)
            for avail in self._config_avails
        )

    # ------------------------------------------------------------- stages
    def _exact_errors(
        self, required: Sequence[int], current_counts: Sequence[int]
    ) -> tuple[int, ...]:
        """Stage 3 of the E-CEM reference metric: true division, quantised
        to the 6-bit range the hardware metric occupies, current first."""
        errs = [exact_error(required, current_counts)] + [
            exact_error(required, avail) for avail in self._config_avails
        ]
        return tuple(min(_SUM_LIMIT, round(e)) for e in errs)

    def _table_errors(
        self, required: Sequence[int], current_counts: Sequence[int]
    ) -> tuple[int, ...]:
        """Stage 3 of the shift metric from the tables: every candidate's
        five CEM terms (one term row per type, indexed by the required
        count) added operand by operand from zero, current first."""
        r0, r1, r2, r3, r4 = required
        c0, c1, c2, c3, c4 = current_counts
        terms = _TERMS
        limit = _COUNT_LIMIT
        current_rows = (
            terms[min(c0, limit)],
            terms[min(c1, limit)],
            terms[min(c2, limit)],
            terms[min(c3, limit)],
            terms[min(c4, limit)],
        )
        add = _ACCUMULATE
        errors = []
        for s0, s1, s2, s3, s4 in (current_rows, *self._config_rows):
            errors.append(
                add[add[add[add[add[0][s0[r0]]][s1[r1]]][s2[r2]]][s3[r3]]][s4[r4]]
            )
        return tuple(errors)

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
        if self.use_exact_metric:
            errors = self._exact_errors(required, current_counts)
        else:
            errors = self._table_errors(required, current_counts)
        c0, c1, c2, c3, c4 = current_counts
        # every candidate's reconfiguration distance: the L1 distance of
        # its unit counts from the configured ones (a cheap proxy for the
        # slots the loader would rewrite); the current one is at zero
        distances = [0]
        for a0, a1, a2, a3, a4 in self._config_avails:
            distance = (
                abs(a0 - c0) + abs(a1 - c1) + abs(a2 - c2) + abs(a3 - c3)
                + abs(a4 - c4)
            )
            distances.append(min(distance, _DISTANCE_LIMIT))
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
        (:data:`~repro.isa.futypes.COUNT_ONE`; counting the window is the
        caller's part: the policies read the RUU's ``waiting_demand``)."""
        return self.select_required(required_of(demand), current_counts)

    def select(
        self,
        queue: Sequence[Instruction],
        current_counts: Sequence[int],
    ) -> SelectionResult:
        """Run all four stages and return the two-bit selection: every
        entry of ``queue`` counted by unit type, then :func:`required_of`
        and :meth:`select_required`.

        A reference model: the tests drive the unit from an instruction
        queue through it; the simulator calls :meth:`select_demand`."""
        demand = 0
        for instr in queue:
            demand += COUNT_ONE[instr.fu_type]
        return self.select_required(required_of(demand), current_counts)
