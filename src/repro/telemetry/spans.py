"""Span tracing exported as Chrome trace-event JSON.

Events follow the trace-event format understood by Perfetto and
``chrome://tracing``: complete spans (``ph: "X"``), instant markers
(``ph: "i"``) and counter tracks (``ph: "C"``).  Timestamps are in
microseconds; for cycle-domain events the convention is **1 simulated
cycle = 1 µs**, so a reconfiguration with latency 8 renders as an 8 µs
span and the time axis reads directly in cycles.  Wall-clock events
(batch jobs) use real elapsed microseconds instead — they live on their
own named tracks so the two domains never share an axis.

The buffer is bounded: once ``max_events`` is reached the oldest events
are dropped (and counted in ``dropped``), keeping memory O(max_events)
for arbitrarily long runs.
"""

from __future__ import annotations

import json
from collections import deque

__all__ = ["SpanTracer"]


class SpanTracer:
    """Bounded collector of Chrome trace events on named tracks."""

    def __init__(self, max_events: int = 20_000):
        self.max_events = max_events
        self._events: deque[dict] = deque(maxlen=max_events)
        self._appended = 0
        self._tids: dict[str, int] = {}

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = self._tids[track] = len(self._tids) + 1
        return tid

    def _push(self, event: dict) -> None:
        self._events.append(event)
        self._appended += 1

    def complete(self, name: str, ts: float, dur: float, track: str = "sim", **args):
        """A span with a start and a duration (``ph: "X"``)."""
        event = {
            "name": name, "ph": "X", "ts": float(ts), "dur": float(dur),
            "pid": 1, "tid": self._tid(track),
        }
        if args:
            event["args"] = args
        self._push(event)

    def instant(self, name: str, ts: float, track: str = "sim", **args):
        """A point-in-time marker (``ph: "i"``, thread scope)."""
        event = {
            "name": name, "ph": "i", "s": "t", "ts": float(ts),
            "pid": 1, "tid": self._tid(track),
        }
        if args:
            event["args"] = args
        self._push(event)

    def counter(self, name: str, ts: float, values: dict, track: str = "sim"):
        """A counter-track sample (``ph: "C"``); Perfetto plots each key."""
        self._push({
            "name": name, "ph": "C", "ts": float(ts),
            "pid": 1, "tid": self._tid(track),
            "args": {k: float(v) for k, v in values.items()},
        })

    @property
    def dropped(self) -> int:
        return self._appended - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def to_chrome_trace(self) -> dict:
        """Full trace document: metadata naming each track + the events."""
        metadata = [
            {
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": track},
            }
            for track, tid in self._tids.items()
        ]
        return {
            "traceEvents": metadata + list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_events": self.dropped,
                "time_convention": "1 simulated cycle = 1 us on sim tracks",
            },
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)
