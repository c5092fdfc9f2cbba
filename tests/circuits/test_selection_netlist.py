"""The gate-level selection unit vs the simulator's selection unit.

The equivalence checks evaluate the stage-3/4 netlist bit-sliced: one
truth table per configured-counts vector covers every 3-bit required
vector at once, and is compared with ``select_required`` on every required
vector a window of up to 11 instructions yields, for every
configured-counts vector a catalogue run passes through.
"""

import itertools

import pytest

from repro.circuits.netlist import Netlist
from repro.circuits.selection_netlist import (
    COUNT_WIDTH,
    build_requirement_encoder,
    build_selection_core,
    build_selection_unit,
)
from repro.errors import CircuitError
from repro.fabric.configuration import PREDEFINED_CONFIGS
from repro.isa.futypes import NUM_FU_TYPES, FUType
from repro.isa.opcodes import Opcode
from repro.steering import selection
from repro.steering.selection import ConfigurationSelectionUnit

#: every 3-bit required vector of a window of at most 11 instructions.
_REQUIRED_VECTORS = [
    r for r in itertools.product(range(8), repeat=NUM_FU_TYPES) if sum(r) <= 11
]


def _pattern(required) -> int:
    """Truth-table index of a required vector (``req0`` in the low bits)."""
    return sum(r << (COUNT_WIDTH * i) for i, r in enumerate(required))


@pytest.fixture(scope="module")
def core():
    return build_selection_core()


@pytest.fixture(scope="module")
def sweeps(core, catalogue_counts):
    """``(counts, netlist truth table over every required vector, the
    simulator's result per required vector)`` per catalogue counts."""
    unit = ConfigurationSelectionUnit()
    out = []
    for counts in catalogue_counts:
        table = core.truth_table(
            **{f"cur{i}": min(7, c) for i, c in enumerate(counts)}
        )
        results = [unit.select_required(r, counts) for r in _REQUIRED_VECTORS]
        out.append((counts, table, results))
    return out


class TestGateLevelEquivalence:
    def test_errors_match_functional_generators(self, sweeps):
        for counts, table, results in sweeps:
            for required, result in zip(_REQUIRED_VECTORS, results):
                p = _pattern(required)
                got = tuple(table[f"error{k}"][p] for k in range(4))
                assert got == result.errors, (required, counts)

    def test_select_matches_functional_unit(self, sweeps):
        """The two-bit output of the gates equals the simulator's stage-3+4
        selection."""
        for counts, table, results in sweeps:
            select = table["select"]
            for required, result in zip(_REQUIRED_VECTORS, results):
                assert select[_pattern(required)] == result.index, (required, counts)


class TestStructure:
    def test_gate_count_reported(self, core):
        assert core.gate_count == 2625
        assert core.depth < 150
        assert [name for name, _, _ in core.stages] == [
            "cem_generators", "minimal_error_selector",
        ]
        assert sum(gates for _, gates, _ in core.stages) == core.gate_count

    def test_requires_three_configs(self):
        with pytest.raises(CircuitError):
            build_selection_core(configs=PREDEFINED_CONFIGS[:2])

    def test_outputs_declared(self, core):
        assert set(core.outputs) == {
            "error0", "error1", "error2", "error3", "select",
        }


class TestRequirementEncoderNetlist:
    def test_counts_onehot_columns(self):
        nl = Netlist()
        entries = [nl.input_bus(f"entry{i}", NUM_FU_TYPES) for i in range(7)]
        for t in range(NUM_FU_TYPES):
            column = [entry[t] for entry in entries]
            nl.output_bus(f"count{t}", build_requirement_encoder(nl, column))
        # queue: 3 IALU (bit0), 2 LSU (bit2), 2 FPMDU (bit4)
        onehots = [0b00001, 0b00001, 0b00001, 0b00100, 0b00100, 0b10000, 0b10000]
        out = nl.evaluate(**{f"entry{i}": v for i, v in enumerate(onehots)})
        assert [out[f"count{t}"] for t in range(NUM_FU_TYPES)] == [3, 0, 2, 0, 2]

    @pytest.mark.parametrize("n_entries", [7, 11, 16])
    def test_saturates_like_the_required_table(self, n_entries):
        """Every count 0..n of one type through stages 1 and 2 reads what
        the simulator's ``_REQUIRED`` does (9 entries read 7, not 1)."""
        unit = build_selection_unit(n_entries=n_entries)
        idle = {f"cur{i}": 1 for i in range(NUM_FU_TYPES)}
        lsu = FUType.LSU.bit_index
        for count in range(n_entries + 1):
            ops = [int(Opcode.LW)] * count + [0] * (n_entries - count)
            out = unit.evaluate(**idle, **{f"op{i}": op for i, op in enumerate(ops)})
            assert out[f"req{lsu}"] == selection._REQUIRED[count % 16], count
