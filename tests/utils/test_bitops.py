"""Unit and property tests for bit-manipulation helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import bits, mask, sign_extend, to_signed, to_unsigned


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    @pytest.mark.parametrize("w,expected", [(1, 1), (3, 7), (8, 255), (32, 0xFFFFFFFF)])
    def test_values(self, w, expected):
        assert mask(w) == expected

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestBitAndBits:
    def test_bits_field(self):
        assert bits(0xDEADBEEF, 31, 16) == 0xDEAD
        assert bits(0xDEADBEEF, 15, 0) == 0xBEEF
        assert bits(0b110100, 5, 2) == 0b1101

    def test_bits_single(self):
        assert bits(0b100, 2, 2) == 1

    def test_bits_empty_range_rejected(self):
        with pytest.raises(ValueError):
            bits(0, 1, 2)


class TestSignExtend:
    @pytest.mark.parametrize(
        "value,width,expected",
        [(0x7F, 8, 127), (0x80, 8, -128), (0xFF, 8, -1), (0, 8, 0), (0x4000, 15, -16384)],
    )
    def test_values(self, value, width, expected):
        assert sign_extend(value, width) == expected

    @given(st.integers(-(2**14), 2**14 - 1))
    def test_roundtrip_15bit(self, v):
        assert to_signed(to_unsigned(v, 15), 15) == v

    @given(st.integers(-(2**31), 2**31 - 1))
    def test_roundtrip_32bit(self, v):
        assert to_signed(to_unsigned(v, 32), 32) == v

