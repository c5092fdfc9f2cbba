"""The resource-allocation vector (Table 2).

One 3-bit entry per slot records what the slot currently implements:

* ``000`` — EMPTY: the slot holds nothing;
* a type encoding (Table 2) — the slot is the *head* of a unit;
* ``111`` — SPAN: the slot is a continuation of a multi-slot unit whose
  head is the nearest lower-indexed non-SPAN slot.

The configuration loader computes which slots must change by diffing two
allocation vectors (the paper's XOR); the availability circuit of Eq. 1
reads the vector to consider each multi-slot unit exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FabricError
from repro.isa.futypes import FUType

__all__ = ["EMPTY_ENCODING", "SPAN_ENCODING", "encoding_name", "AllocationVector"]

EMPTY_ENCODING = 0b000
SPAN_ENCODING = 0b111

_VALID = {EMPTY_ENCODING, SPAN_ENCODING} | {int(t) for t in FUType}


def encoding_name(encoding: int) -> str:
    """Human-readable name of a 3-bit slot encoding."""
    if encoding == EMPTY_ENCODING:
        return "EMPTY"
    if encoding == SPAN_ENCODING:
        return "SPAN"
    return FUType(encoding).short_name


@dataclass(frozen=True)
class AllocationVector:
    """An immutable snapshot of per-slot 3-bit encodings."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, e in enumerate(self.entries):
            if e not in _VALID:
                raise FabricError(f"slot {i}: invalid encoding {e:#05b}")
        self._check_spans()

    def _check_spans(self) -> None:
        """SPAN entries must continue a preceding multi-slot head."""
        expected_spans = 0
        for i, e in enumerate(self.entries):
            if e == SPAN_ENCODING:
                if expected_spans == 0:
                    raise FabricError(f"slot {i}: SPAN without a preceding head")
                expected_spans -= 1
            elif e == EMPTY_ENCODING:
                if expected_spans:
                    raise FabricError(f"slot {i}: unit truncated mid-span")
                expected_spans = 0
            else:
                if expected_spans:
                    raise FabricError(f"slot {i}: unit truncated mid-span")
                expected_spans = FUType(e).slot_cost - 1
        if expected_spans:
            raise FabricError("allocation vector ends mid-span")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    @classmethod
    def from_units(cls, n_slots: int, placements: dict[int, FUType]) -> "AllocationVector":
        """Build a vector from ``{head_slot: unit_type}`` placements."""
        entries = [EMPTY_ENCODING] * n_slots
        for head in sorted(placements):
            fu_type = placements[head]
            cost = fu_type.slot_cost
            if head < 0 or head + cost > n_slots:
                raise FabricError(
                    f"{fu_type.short_name} at slot {head} overruns the {n_slots}-slot fabric"
                )
            for k in range(head, head + cost):
                if entries[k] != EMPTY_ENCODING:
                    raise FabricError(f"slot {k}: overlapping placements")
                entries[k] = SPAN_ENCODING
            entries[head] = fu_type.encoding
        return cls(tuple(entries))
