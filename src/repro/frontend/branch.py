"""Branch prediction: 2-bit saturating counters plus a branch target buffer.

Conditional-branch and JAL targets are computable at fetch (PC-relative),
so the BTB is only consulted for indirect jumps (``jalr``).  The predictor
is direct-mapped on the low PC bits, the textbook design.
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["BranchPredictor", "BTB"]

# 2-bit counter states: 0,1 predict not-taken; 2,3 predict taken.
_WEAK_NOT_TAKEN = 1
_TAKEN_THRESHOLD = 2
_MAX_STATE = 3


class BranchPredictor:
    """Direct-mapped table of 2-bit saturating counters."""

    def __init__(self, entries: int = 256) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise SimulationError(f"predictor entries must be a power of two: {entries}")
        self._mask = entries - 1
        self._table = [_WEAK_NOT_TAKEN] * entries
        self.lookups = 0
        self.updates = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        self.lookups += 1
        return self._table[pc & self._mask] >= _TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool, mispredicted: bool = False) -> None:
        """Train the counter with the resolved direction."""
        self.updates += 1
        if mispredicted:
            self.mispredictions += 1
        i = pc & self._mask
        if taken:
            self._table[i] = min(_MAX_STATE, self._table[i] + 1)
        else:
            self._table[i] = max(0, self._table[i] - 1)


class BTB:
    """Branch target buffer for indirect jumps: pc -> last-seen target."""

    def __init__(self, entries: int = 64) -> None:
        if entries <= 0:
            raise SimulationError(f"BTB entries must be positive: {entries}")
        self.entries = entries
        self._map: dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def predict(self, pc: int) -> int | None:
        target = self._map.get(pc)
        if target is None:
            self.misses += 1
        else:
            self.hits += 1
        return target

    def update(self, pc: int, target: int) -> None:
        if pc not in self._map and len(self._map) >= self.entries:
            # evict the oldest entry (insertion order)
            self._map.pop(next(iter(self._map)))
        self._map[pc] = target
