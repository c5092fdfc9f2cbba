"""The table-driven selection path equals the gate models it replaces.

``repro.steering.selection`` evaluates stages 2-4 of the Fig. 2 unit from
tables built at import from the gate models.  These tests check

* every table exhaustively against the gate function it was built from
  (:func:`barrel_shift_right`, :func:`cem_shift_control`,
  :func:`multi_operand_add`, :func:`minimum_index` and the requirement
  encoder's popcount);
* ``required_of`` against the gate-level decoders and encoders for every
  type multiset of up to ``q`` instructions, ``q`` in {3, 7, 11} (so the
  3-bit saturation is included);
* ``select_required`` against a gate-level reference of stages 3 and 4 —
  the CEM generators, the distance tie-break and :func:`minimum_index`
  over the 12-bit ``error ‖ distance`` keys — for every required vector
  those multisets produce, crossed with every configured-counts vector a
  catalogue run of a phased program passes through, in both metric modes.
"""

from __future__ import annotations

import itertools

import pytest

from repro.circuits.adders import multi_operand_add
from repro.circuits.comparators import minimum_index
from repro.circuits.shifters import barrel_shift_right, cem_shift_control
from repro.core.baselines import policy_catalogue
from repro.core.params import ProcessorParams
from repro.errors import CircuitError
from repro.isa.assembler import assemble
from repro.isa.futypes import COUNT_ONE, FU_TYPES, FUType, unpack_counts
from repro.steering import selection
from repro.steering.decoders import UnitDecoder
from repro.steering.error_metric import COUNT_WIDTH, SUM_WIDTH, exact_error
from repro.steering.requirements import RequirementsEncoder
from repro.steering.selection import ConfigurationSelectionUnit, required_of
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX

WINDOWS = (3, 7, 11)

#: one instruction of each unit type, in canonical type order.
_ONE_OF_EACH = {
    FUType.INT_ALU: "add x1, x2, x3",
    FUType.INT_MDU: "mul x1, x2, x3",
    FUType.LSU: "lw x1, 0(x2)",
    FUType.FP_ALU: "fadd f1, f2, f3",
    FUType.FP_MDU: "fmul f1, f2, f3",
}
_INSTRUCTIONS = {
    t: assemble(line + "\n").instructions[0] for t, line in _ONE_OF_EACH.items()
}


def _multisets(q: int):
    """Every per-type count vector of at most ``q`` instructions."""
    for counts in itertools.product(range(q + 1), repeat=len(FU_TYPES)):
        if sum(counts) <= q:
            yield counts


def _queue(counts) -> list:
    """A queue holding ``counts[i]`` instructions of type ``i``,
    interleaved round-robin so no type sits in one block."""
    left = list(counts)
    queue = []
    while any(left):
        for i, t in enumerate(FU_TYPES):
            if left[i]:
                queue.append(_INSTRUCTIONS[t])
                left[i] -= 1
    return queue


def _pack(counts) -> int:
    return sum(n * COUNT_ONE[t] for t, n in zip(FU_TYPES, counts))


# ----------------------------------------------------------------- tables
def test_shift_table_matches_barrel_shifter():
    for shift in range(COUNT_WIDTH):
        for value in range(1 << COUNT_WIDTH):
            assert selection._SHIFTED[shift][value] == barrel_shift_right(
                value, shift, COUNT_WIDTH
            )


def test_shift_control_table_matches_fig3c():
    for count in range(1 << COUNT_WIDTH):
        assert selection._SHIFT_CONTROL[count] == cem_shift_control(count)


def test_accumulate_table_matches_adder():
    for total in range(1 << SUM_WIDTH):
        for term in range(1 << COUNT_WIDTH):
            assert selection._ACCUMULATE[total][term] == multi_operand_add(
                (total, term), SUM_WIDTH, SUM_WIDTH
            )


def test_accumulated_terms_match_five_operand_adder():
    add = selection._ACCUMULATE
    for terms in itertools.product(range(1 << COUNT_WIDTH), repeat=len(FU_TYPES)):
        total = 0
        for term in terms:
            total = add[total][term]
        assert total == multi_operand_add(terms, COUNT_WIDTH, SUM_WIDTH)


def test_below_table_matches_minimum_index():
    for a in range(1 << SUM_WIDTH):
        for b in range(1 << SUM_WIDTH):
            assert selection._BELOW[a][b] == minimum_index((b, a), SUM_WIDTH)


def test_required_table_matches_encoder_popcount():
    encoder = RequirementsEncoder(COUNT_WIDTH)
    for count in range(2 * len(selection._REQUIRED) + 3):
        wrapped = count % len(selection._REQUIRED)
        assert selection._REQUIRED[wrapped] == encoder([1] * count)[0]


# ---------------------------------------------------------------- stage 2
@pytest.mark.parametrize("q", WINDOWS)
def test_required_of_matches_decoders_and_encoders(q):
    unit = ConfigurationSelectionUnit(queue_size=q)
    for counts in _multisets(q):
        demand = _pack(counts)
        assert unpack_counts(demand) == counts
        assert required_of(demand) == unit.required_counts(_queue(counts))


def test_required_of_wraps_like_the_popcount_tree():
    decoder, encoder = UnitDecoder(), RequirementsEncoder()
    for n in (15, 16, 17, 23):
        queue = [_INSTRUCTIONS[FUType.LSU]] * n + [_INSTRUCTIONS[FUType.FP_MDU]]
        demand = n * COUNT_ONE[FUType.LSU] + COUNT_ONE[FUType.FP_MDU]
        assert required_of(demand) == encoder([decoder(i) for i in queue])


# ------------------------------------------------------------ stages 3-4
_KEY_WIDTH = SUM_WIDTH + selection._DISTANCE_WIDTH


class GateReference:
    """Stages 3 and 4 of a unit evaluated by the gate models (and, in the
    exact mode, by the float metric), memoised per pure sub-result so the
    cross product stays cheap: the predefined candidates' errors per
    required vector, the current candidate's per required vector and
    shifts (exact mode: per required vector and counts), and the gate
    minimum per key tuple."""

    def __init__(self, unit: ConfigurationSelectionUnit) -> None:
        self.unit = unit
        self._predefined: dict = {}
        self._current: dict = {}
        self._minimum: dict = {}

    def _predefined_errors(self, required) -> tuple[int, ...]:
        errors = self._predefined.get(required)
        if errors is None:
            unit = self.unit
            if unit.use_exact_metric:
                # the exact metric of a predefined candidate ignores counts
                errors = unit.candidate_errors(required, (1,) * len(FU_TYPES))[1:]
            else:
                errors = tuple(g.error(required) for g in unit._config_gens)
            self._predefined[required] = errors
        return errors

    def selections(self, required_vectors, counts):
        """``(index, config, errors, required)`` per required vector."""
        unit = self.unit
        distances = unit._distances(counts)
        if unit.use_exact_metric:
            available = unit._current_gen.available_counts(counts)
            limit = (1 << SUM_WIDTH) - 1
        else:
            shifts = unit._current_gen.shifts_for(counts)
        for required in required_vectors:
            if unit.use_exact_metric:
                current = min(limit, round(exact_error(required, available)))
            else:
                current = self._current.get((required, shifts))
                if current is None:
                    current = unit._current_gen.error(required, counts)
                    self._current[(required, shifts)] = current
            errors = (current, *self._predefined_errors(required))
            keys = tuple(
                (e << selection._DISTANCE_WIDTH) | d
                for e, d in zip(errors, distances)
            )
            index = self._minimum.get(keys)
            if index is None:
                index = minimum_index(keys, _KEY_WIDTH)
                self._minimum[keys] = index
            config = None if index == 0 else unit.configs[index - 1]
            yield required, (index, config, errors, required)


@pytest.fixture(scope="module")
def seen_counts() -> list[tuple[int, ...]]:
    """Every configured-counts vector of a catalogue run of a phased
    program with the default parameters."""
    program = phased_program(
        [(INT_MIX, 12), (MEM_MIX, 12), (FP_MIX, 12)], body_len=16, seed=3
    )
    seen = set()

    class Counts:
        def on_stage(self, proc, stage):
            pass

        def on_cycle(self, proc, *args):
            seen.add(proc.fabric.counts_tuple())

    for factory in policy_catalogue().values():
        proc = factory(program, ProcessorParams())
        proc.observer = Counts()
        proc.run()
    assert len(seen) > 10  # the run really reconfigures
    return sorted(seen)


@pytest.mark.parametrize("exact", [False, True], ids=["shift", "exact"])
def test_select_required_matches_gate_reference(exact, seen_counts):
    unit = ConfigurationSelectionUnit(use_exact_metric=exact)
    reference = GateReference(unit)
    # the multisets of up to 3 and 7 instructions are among those of 11
    required_vectors = sorted(
        {required_of(_pack(c)) for c in _multisets(max(WINDOWS))}
    )
    select = unit.select_required
    for counts in seen_counts:
        for required, want in reference.selections(required_vectors, counts):
            result = select(required, counts)
            got = (result.index, result.config, result.errors, result.required)
            assert got == want, (required, counts)


@pytest.mark.parametrize("q", WINDOWS)
def test_select_matches_select_demand(q):
    """The full four stages on a queue equal the per-cycle entry on its
    packed demand (a sample of the multisets: every fifth)."""
    unit = ConfigurationSelectionUnit(queue_size=q)
    counts = (2, 1, 3, 1, 1)
    for k, multiset in enumerate(_multisets(q)):
        if k % 5:
            continue
        assert unit.select(_queue(multiset), counts) == unit.select_demand(
            _pack(multiset), counts
        )


def test_select_required_rejects_out_of_range_counts():
    unit = ConfigurationSelectionUnit()
    with pytest.raises(CircuitError):
        unit.select_required((8, 0, 0, 0, 0), (1, 1, 1, 1, 1))
    with pytest.raises(CircuitError):
        unit.select_required((0, 0, 0, 0), (1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        unit.select_required((0, 0, 0, 0, 0), (1, 1, 1, 1))
