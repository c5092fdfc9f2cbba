"""Per-type counts of a slot array, read from its slots for assertions."""

from collections import Counter

from repro.isa.futypes import FUType


def rfu_loaded(rfus) -> dict[FUType, int]:
    """Configured (loaded, usable) reconfigurable units per type."""
    return dict(Counter(unit.fu_type for _, unit in rfus.units()))


def rfu_loading(rfus) -> dict[FUType, int]:
    """Units being loaded, per type."""
    return dict(
        Counter(s.pending_type for s in rfus.slots if s.pending_type is not None)
    )
