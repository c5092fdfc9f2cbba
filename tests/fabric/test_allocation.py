"""Tests for the resource-allocation vector (Table 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FabricError
from repro.fabric.allocation import (
    EMPTY_ENCODING,
    SPAN_ENCODING,
    AllocationVector,
    encoding_name,
)
from repro.isa.futypes import FU_TYPES, FUType


class TestEncodings:
    def test_special_encodings(self):
        assert EMPTY_ENCODING == 0b000
        assert SPAN_ENCODING == 0b111

    def test_names(self):
        assert encoding_name(EMPTY_ENCODING) == "EMPTY"
        assert encoding_name(SPAN_ENCODING) == "SPAN"
        assert encoding_name(FUType.INT_ALU.encoding) == "IALU"


class TestFromUnits:
    def test_single_slot_unit(self):
        v = AllocationVector.from_units(8, {0: FUType.INT_ALU})
        assert v[0] == FUType.INT_ALU.encoding
        assert all(v[i] == EMPTY_ENCODING for i in range(1, 8))

    def test_multi_slot_unit_has_span_entries(self):
        """Table 2: head entry holds the type, followers hold SPAN (111)."""
        v = AllocationVector.from_units(8, {2: FUType.FP_ALU})
        assert v[2] == FUType.FP_ALU.encoding
        assert v[3] == SPAN_ENCODING
        assert v[4] == SPAN_ENCODING
        assert v[5] == EMPTY_ENCODING

    def test_full_integer_config_layout(self):
        v = AllocationVector.from_units(
            8,
            {0: FUType.INT_ALU, 1: FUType.INT_ALU, 2: FUType.INT_ALU,
             3: FUType.INT_ALU, 4: FUType.INT_MDU, 6: FUType.INT_MDU},
        )
        alu, mdu = FUType.INT_ALU.encoding, FUType.INT_MDU.encoding
        assert v.entries == (alu, alu, alu, alu, mdu, SPAN_ENCODING, mdu, SPAN_ENCODING)

    def test_overrun_rejected(self):
        with pytest.raises(FabricError, match="overruns"):
            AllocationVector.from_units(8, {6: FUType.FP_ALU})

    def test_overlap_rejected(self):
        with pytest.raises(FabricError, match="overlap"):
            AllocationVector.from_units(8, {0: FUType.FP_ALU, 2: FUType.LSU})


class TestValidation:
    def test_span_without_head_rejected(self):
        with pytest.raises(FabricError, match="SPAN"):
            AllocationVector((SPAN_ENCODING, EMPTY_ENCODING))

    def test_truncated_unit_rejected(self):
        # FP unit needs 3 slots: head + only one span is invalid
        with pytest.raises(FabricError):
            AllocationVector((FUType.FP_ALU.encoding, SPAN_ENCODING, EMPTY_ENCODING))

    def test_unit_ending_mid_span_at_boundary(self):
        with pytest.raises(FabricError, match="mid-span"):
            AllocationVector((FUType.INT_MDU.encoding,))

    def test_invalid_encoding_rejected(self):
        with pytest.raises(FabricError, match="invalid encoding"):
            AllocationVector((0b110,))


@given(st.lists(st.sampled_from(list(FU_TYPES)), max_size=5))
def test_first_fit_placements_always_valid(types):
    """Property: packing units first-fit never produces an invalid vector."""
    placements = {}
    cursor = 0
    for t in types:
        if cursor + t.slot_cost > 16:
            break
        placements[cursor] = t
        cursor += t.slot_cost
    v = AllocationVector.from_units(16, placements)
    heads = {
        i: FUType(e)
        for i, e in enumerate(v.entries)
        if e not in (EMPTY_ENCODING, SPAN_ENCODING)
    }
    assert heads == placements
