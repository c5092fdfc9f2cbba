"""Bounded, stride-downsampled time-series buffers.

A ``StrideSeries`` accepts an unbounded stream of ``(x, value)`` samples
but stores at most ``capacity`` points.  It keeps every ``stride``-th
sample; when the buffer fills, every second stored point is discarded
and the stride doubles, so memory stays O(capacity) while the retained
points remain evenly spaced over the whole run.  Appending is O(1)
amortised and the kept points are always in ascending ``x`` order.

``SeriesBank`` is a named collection of series sharing one capacity —
the container ``ProcessorTelemetry`` writes into and ``/api/runs/<id>/
timeseries`` serves out.  The steering decision ledger keeps its records
in a ``StrideSeries`` keyed by decision cycle.
"""

from __future__ import annotations

from typing import Any

__all__ = ["StrideSeries", "SeriesBank"]


class StrideSeries:
    """Fixed-memory series that self-coarsens as samples stream in."""

    __slots__ = ("capacity", "stride", "_seen", "_xs", "_vs")

    def __init__(self, capacity: int = 2048):
        if capacity < 4:
            raise ValueError("capacity must be at least 4")
        self.capacity = capacity
        self.stride = 1
        self._seen = 0  # total samples offered, kept or not
        self._xs: list[float] = []
        self._vs: list[Any] = []

    def append(self, x: float, value: Any) -> None:
        if self._seen % self.stride == 0:
            if len(self._xs) >= self.capacity:
                # Halve resolution: keep every 2nd point, double the stride.
                self._xs = self._xs[::2]
                self._vs = self._vs[::2]
                self.stride *= 2
            if self._seen % self.stride == 0:
                self._xs.append(x)
                self._vs.append(value)
        self._seen += 1

    def __len__(self) -> int:
        return len(self._xs)

    @property
    def seen(self) -> int:
        return self._seen

    def samples(self) -> list[tuple[float, Any]]:
        return list(zip(self._xs, self._vs))

    def to_dict(self) -> dict:
        return {
            "x": list(self._xs),
            "v": list(self._vs),
            "stride": self.stride,
            "seen": self._seen,
        }


class SeriesBank:
    """Lazily-created named ``StrideSeries`` sharing one capacity."""

    __slots__ = ("capacity", "_series")

    def __init__(self, capacity: int = 2048):
        self.capacity = capacity
        self._series: dict[str, StrideSeries] = {}

    def series(self, name: str) -> StrideSeries:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = StrideSeries(self.capacity)
        return s

    def append(self, name: str, x: float, value: float) -> None:
        self.series(name).append(x, value)

    def names(self) -> list[str]:
        return list(self._series)

    def to_dict(self) -> dict:
        return {name: s.to_dict() for name, s in self._series.items()}
