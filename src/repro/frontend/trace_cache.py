"""The trace cache (a Fig. 1 fixed module).

Holds instruction *traces* — short sequences of PCs along a previously
observed path — so that fetch can continue past a predicted-taken branch
within a single cycle.  Without a hit, a fetch packet ends at the first
predicted-taken control instruction; with a hit the packet follows the
cached continuation up to the full fetch width.

The cache is direct-lookup on the trace's start PC with FIFO eviction.
Traces are validated against the current predictor state at fetch time, so
a stale trace simply yields a shorter packet, never a wrong-path fetch
beyond ordinary misprediction.
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["TraceCache"]


class TraceCache:
    """start PC -> tuple of successor PCs observed on the hot path."""

    def __init__(self, capacity: int = 64, max_trace: int = 16) -> None:
        if capacity <= 0:
            raise SimulationError(f"trace cache capacity must be positive: {capacity}")
        if max_trace <= 0:
            raise SimulationError(f"trace length must be positive: {max_trace}")
        self.capacity = capacity
        self.max_trace = max_trace
        self._lines: dict[int, tuple[int, ...]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> tuple[int, ...] | None:
        """The cached continuation starting at ``pc``, if any."""
        line = self._lines.get(pc)
        if line is None:
            self.misses += 1
        else:
            self.hits += 1
        return line

    def insert(self, pc: int, trace: tuple[int, ...]) -> None:
        """Record the path observed from ``pc`` (truncated to max length)."""
        trace = tuple(trace[: self.max_trace])
        if not trace:
            return
        if pc not in self._lines and len(self._lines) >= self.capacity:
            self._lines.pop(next(iter(self._lines)))
        self._lines[pc] = trace

    def __len__(self) -> int:
        return len(self._lines)
