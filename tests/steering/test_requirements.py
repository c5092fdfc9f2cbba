"""Tests for the resource-requirement encoders (Fig. 2 stage 2), gate
level: the queue's opcodes through the decoders and encoders of the
selection-unit netlist."""

from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.selection_netlist import build_selection_unit
from repro.isa.assembler import assemble
from repro.isa.futypes import FU_TYPES, NUM_FU_TYPES, FUType
from repro.isa.opcodes import Opcode

#: one opcode of each unit type.
_OPCODE = {
    FUType.INT_ALU: Opcode.ADD,
    FUType.INT_MDU: Opcode.MUL,
    FUType.LSU: Opcode.LW,
    FUType.FP_ALU: Opcode.FADD,
    FUType.FP_MDU: Opcode.FMUL,
}
_UNITS: dict = {}


def _encode(opcodes, n_entries: int = 7) -> tuple[int, ...]:
    """Stages 1 and 2 of an ``n_entries`` netlist on a queue's opcodes."""
    unit = _UNITS.get(n_entries)
    if unit is None:
        unit = _UNITS[n_entries] = build_selection_unit(n_entries)
    ops = [int(op) for op in opcodes] + [0] * (n_entries - len(opcodes))
    out = unit.evaluate(
        **{f"cur{i}": 1 for i in range(NUM_FU_TYPES)},
        **{f"op{i}": op for i, op in enumerate(ops)},
    )
    return tuple(out[f"req{i}"] for i in range(NUM_FU_TYPES))


class TestEncode:
    def test_empty_queue(self):
        assert _encode([]) == (0, 0, 0, 0, 0)

    def test_mixed_queue(self):
        queue = [
            _OPCODE[FUType.INT_ALU],
            _OPCODE[FUType.INT_ALU],
            _OPCODE[FUType.LSU],
            _OPCODE[FUType.FP_MDU],
        ]
        assert _encode(queue) == (2, 0, 1, 0, 1)

    def test_full_queue_of_one_type(self):
        assert _encode([_OPCODE[FUType.INT_ALU]] * 7) == (7, 0, 0, 0, 0)

    def test_saturates_beyond_seven(self):
        """The clamp for queues wider than the paper's seven."""
        counts = _encode([_OPCODE[FUType.LSU]] * 9, n_entries=11)
        assert counts[FUType.LSU.bit_index] == 7

    @given(st.lists(st.sampled_from(list(FU_TYPES)), max_size=7))
    def test_matches_counting(self, types):
        counts = _encode([_OPCODE[t] for t in types])
        for t in FU_TYPES:
            assert counts[t.bit_index] == types.count(t)

    @given(st.lists(st.sampled_from(list(FU_TYPES)), max_size=7))
    def test_total_equals_queue_occupancy(self, types):
        assert sum(_encode([_OPCODE[t] for t in types])) == len(types)


class TestEndToEndWithDecoder:
    def test_decoder_feeds_encoder(self):
        program = assemble(
            """
            add x1, x2, x3
            mul x4, x5, x6
            lw x7, 0(x8)
            lw x9, 4(x8)
            fadd f1, f2, f3
            fdiv f4, f5, f6
            halt
            """
        )
        counts = _encode([i.opcode for i in program.instructions])
        # add + halt on INT_ALU; mul on MDU; 2 loads; 1 fp-alu; 1 fp-mdu
        assert counts == (2, 1, 2, 1, 1)

