"""Shared low-level helpers: bit manipulation, canonical JSON and
environment flags."""

from repro.utils.bitops import bits, mask, sign_extend, to_signed, to_unsigned

__all__ = ["bits", "mask", "sign_extend", "to_signed", "to_unsigned"]
