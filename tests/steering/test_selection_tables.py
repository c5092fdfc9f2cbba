"""The table-driven selection path equals the arithmetic it implements.

``repro.steering.selection`` evaluates stages 2-4 of the Fig. 2 unit from
tables that are truth tables of the gate netlist's blocks.  These tests
check

* every table exhaustively against plain integer arithmetic: ``r >> shift``
  for the Fig. 3(c) term rows, ``(t + v) & 63`` for the adder step,
  ``a < b`` for the comparator and ``min(c % 16, 7)`` for the encoder;
* ``required_of`` against the saturated per-type counts for every type
  multiset of up to ``q`` instructions, ``q`` in {3, 7, 11}, and against
  the netlist's decoders and encoders on a sample of those queues;
* ``select_required`` against an arithmetic reference of stages 3 and 4 —
  the shifted-term sums (or the exact metric), the distance tie-break and
  the first minimum of ``error ‖ distance`` — for every required vector
  those multisets produce, crossed with every configured-counts vector a
  catalogue run of a phased program passes through, in both metric modes.

``tests/circuits/test_selection_netlist.py`` checks the whole netlist
against ``select_required`` on the same inputs.
"""

from __future__ import annotations

import itertools

import pytest

from repro.circuits.netlist import Netlist, build_minimum_selector
from repro.circuits.selection_netlist import (
    COUNT_WIDTH,
    DISTANCE_WIDTH,
    SUM_WIDTH,
    build_requirement_encoder,
    build_selection_unit,
    hardwired_shifts,
)
from repro.errors import CircuitError
from repro.isa.assembler import assemble
from repro.isa.futypes import COUNT_ONE, FU_TYPES, FUType, unpack_counts
from repro.steering import selection
from repro.steering.error_metric import exact_error
from repro.steering.selection import ConfigurationSelectionUnit, required_of

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
_COUNT_LIMIT = (1 << COUNT_WIDTH) - 1
_SUM_LIMIT = (1 << SUM_WIDTH) - 1
_DISTANCE_LIMIT = (1 << DISTANCE_WIDTH) - 1


def _shift(count: int) -> int:
    """Fig. 3(c): divide by the unit count rounded down to a power of
    two, at most 4."""
    return 2 if count >= 4 else 1 if count >= 2 else 0


def _saturated(count: int) -> int:
    """Stage 2: a 4-bit popcount saturated to 3 bits."""
    return min(count % 16, _COUNT_LIMIT)


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
    """A predefined candidate's term rows are its hard-wired shifters."""
    unit = ConfigurationSelectionUnit()
    for config, rows in zip(unit.configs, unit._config_rows):
        for shift, row in zip(hardwired_shifts(config), rows):
            assert row == tuple(v >> shift for v in range(_COUNT_LIMIT + 1))


def test_shift_control_table_matches_fig3c():
    for count in range(_COUNT_LIMIT + 1):
        for value in range(_COUNT_LIMIT + 1):
            assert selection._TERMS[count][value] == value >> _shift(count)


def test_accumulate_table_matches_adder():
    for total in range(_SUM_LIMIT + 1):
        for term in range(_COUNT_LIMIT + 1):
            assert selection._ACCUMULATE[total][term] == (total + term) & _SUM_LIMIT


def test_accumulated_terms_match_five_operand_adder():
    add = selection._ACCUMULATE
    for terms in itertools.product(range(_COUNT_LIMIT + 1), repeat=len(FU_TYPES)):
        total = 0
        for term in terms:
            total = add[total][term]
        assert total == sum(terms)


def test_below_table_matches_minimum_index():
    """``_BELOW[a][b]`` is ``a < b``, which is when the netlist's minimum
    selector over ``(b, a)`` picks index 1."""
    nl = Netlist()
    b_bus = nl.input_bus("b", SUM_WIDTH)
    a_bus = nl.input_bus("a", SUM_WIDTH)
    nl.output_bus("index", build_minimum_selector(nl, [b_bus, a_bus]))
    index = nl.truth_table()["index"]
    for a in range(_SUM_LIMIT + 1):
        for b in range(_SUM_LIMIT + 1):
            assert selection._BELOW[a][b] == int(a < b)
            assert index[b | a << SUM_WIDTH] == int(a < b)


def test_required_table_matches_encoder_popcount():
    for count in range(2 * len(selection._REQUIRED) + 3):
        wrapped = count % len(selection._REQUIRED)
        assert selection._REQUIRED[wrapped] == _saturated(count)


# ---------------------------------------------------------------- stage 2
@pytest.mark.parametrize("q", WINDOWS)
def test_required_of_matches_decoders_and_encoders(q):
    netlist = build_selection_unit(n_entries=q)
    idle = {f"cur{i}": 1 for i in range(len(FU_TYPES))}
    for k, counts in enumerate(_multisets(q)):
        demand = _pack(counts)
        assert unpack_counts(demand) == counts
        required = required_of(demand)
        assert required == tuple(_saturated(c) for c in counts)
        if k % 16:
            continue
        # the netlist's stages 1 and 2 on the queue's opcodes (0 = empty)
        opcodes = [int(i.opcode) for i in _queue(counts)] + [0] * (q - sum(counts))
        out = netlist.evaluate(**idle, **{f"op{i}": op for i, op in enumerate(opcodes)})
        assert tuple(out[f"req{t}"] for t in range(len(FU_TYPES))) == required


def test_required_of_wraps_like_the_popcount_tree():
    nl = Netlist()
    column = nl.input_bus("column", 24)
    nl.output_bus("count", build_requirement_encoder(nl, column))
    for n in (15, 16, 17, 23):
        demand = n * COUNT_ONE[FUType.LSU] + COUNT_ONE[FUType.FP_MDU]
        lsu = nl.evaluate(column=(1 << n) - 1)["count"]
        assert required_of(demand) == (0, 0, lsu, 0, 1)
        assert lsu == _saturated(n)


# ------------------------------------------------------------ stages 3-4
class ArithmeticReference:
    """Stages 3 and 4 of a unit in plain arithmetic: the shifted-term sum
    (or the quantised exact metric) of every candidate, the L1 distance
    tie-break and the first minimum of ``(error, distance)``.  The
    predefined candidates' errors are memoised per required vector."""

    def __init__(self, unit: ConfigurationSelectionUnit) -> None:
        self.unit = unit
        self.avails = [
            tuple(c.count(t) + unit.ffu_counts.get(t, 0) for t in FU_TYPES)
            for c in unit.configs
        ]
        self._predefined: dict = {}

    def error(self, required, available) -> int:
        if self.unit.use_exact_metric:
            return min(_SUM_LIMIT, round(exact_error(required, available)))
        return sum(
            r >> _shift(min(a, _COUNT_LIMIT)) for r, a in zip(required, available)
        )

    def selections(self, required_vectors, counts):
        """``(index, config, errors, required)`` per required vector."""
        distances = [0] + [
            min(_DISTANCE_LIMIT, sum(abs(a - c) for a, c in zip(avail, counts)))
            for avail in self.avails
        ]
        for required in required_vectors:
            predefined = self._predefined.get(required)
            if predefined is None:
                predefined = tuple(self.error(required, a) for a in self.avails)
                self._predefined[required] = predefined
            errors = (self.error(required, counts), *predefined)
            index = min(range(len(errors)), key=lambda i: (errors[i], distances[i]))
            config = None if index == 0 else self.unit.configs[index - 1]
            yield required, (index, config, errors, required)


@pytest.mark.parametrize("exact", [False, True], ids=["shift", "exact"])
def test_select_required_matches_reference(exact, catalogue_counts):
    """``select_required`` equals the arithmetic reference; the netlist
    itself is checked against ``select_required`` in
    ``tests/circuits/test_selection_netlist.py``."""
    unit = ConfigurationSelectionUnit(use_exact_metric=exact)
    reference = ArithmeticReference(unit)
    # the multisets of up to 3 and 7 instructions are among those of 11
    required_vectors = sorted(
        {required_of(_pack(c)) for c in _multisets(max(WINDOWS))}
    )
    select = unit.select_required
    for counts in catalogue_counts:
        for required, want in reference.selections(required_vectors, counts):
            result = select(required, counts)
            got = (result.index, result.config, result.errors, result.required)
            assert got == want, (required, counts)


@pytest.mark.parametrize("q", WINDOWS)
def test_select_matches_select_demand(q):
    """The full four stages on a queue equal the per-cycle entry on its
    packed demand (a sample of the multisets: every fifth)."""
    unit = ConfigurationSelectionUnit()
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
