"""Tests for Configuration and the Table 1 steering basis."""

import pytest

from repro.errors import ConfigurationError
from repro.fabric.configuration import (
    CONFIG_FLOATING,
    CONFIG_INTEGER,
    CONFIG_MEMORY,
    FFU_COUNTS,
    NUM_RFU_SLOTS,
    PREDEFINED_CONFIGS,
    Configuration,
    steering_table,
)
from repro.isa.futypes import FU_TYPES, FUType


class TestTable1:
    def test_three_predefined_configs(self):
        assert len(PREDEFINED_CONFIGS) == 3

    def test_every_config_fills_eight_slots_exactly(self):
        """The reconstruction invariant: each steering config uses all 8 slots."""
        for cfg in PREDEFINED_CONFIGS:
            assert cfg.slot_usage == NUM_RFU_SLOTS

    def test_ffus_one_of_each_type(self):
        assert FFU_COUNTS == {t: 1 for t in FU_TYPES}

    def test_integer_config(self):
        assert CONFIG_INTEGER.count(FUType.INT_ALU) == 4
        assert CONFIG_INTEGER.count(FUType.INT_MDU) == 2
        assert CONFIG_INTEGER.count(FUType.FP_ALU) == 0

    def test_memory_config(self):
        assert CONFIG_MEMORY.count(FUType.LSU) == 4
        assert CONFIG_MEMORY.count(FUType.INT_ALU) == 2

    def test_floating_config(self):
        assert CONFIG_FLOATING.count(FUType.FP_ALU) == 1
        assert CONFIG_FLOATING.count(FUType.FP_MDU) == 1
        assert CONFIG_FLOATING.count(FUType.INT_ALU) == 1
        assert CONFIG_FLOATING.count(FUType.LSU) == 1

    def test_configs_are_roughly_orthogonal(self):
        """§5: the basis should cover different unit types."""
        for a in PREDEFINED_CONFIGS:
            for b in PREDEFINED_CONFIGS:
                if a is b:
                    continue
                # no config's vector dominates another's
                va, vb = a.as_vector(), b.as_vector()
                assert any(x > y for x, y in zip(va, vb))


class TestConfiguration:
    def test_slot_usage(self):
        cfg = Configuration("x", {FUType.FP_ALU: 2, FUType.LSU: 1})
        assert cfg.slot_usage == 7

    def test_validate_rejects_overflow(self):
        with pytest.raises(ConfigurationError, match="slots"):
            Configuration("big", {FUType.FP_ALU: 3}).validate()

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration("neg", {FUType.LSU: -1})

    def test_as_vector(self):
        assert CONFIG_MEMORY.as_vector() == (2, 1, 4, 0, 0)

    def test_str(self):
        assert "IALUx4" in str(CONFIG_INTEGER)


class TestSteeringTable:
    def test_renders_all_rows(self):
        text = steering_table()
        assert "FFUs" in text
        assert "Config 1 (integer)" in text
        assert "Config 2 (memory)" in text
        assert "Config 3 (floating)" in text

    def test_has_column_per_type(self):
        header = steering_table().splitlines()[0]
        for t in FU_TYPES:
            assert t.short_name in header
