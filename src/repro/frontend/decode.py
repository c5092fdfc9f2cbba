"""The decode stage: a one-cycle buffer between fetch and dispatch.

Instructions arrive pre-decoded (the fetch model decodes the memory word),
so this stage models the pipeline latency and holds the decode width, and
gives the configuration manager's unit decoders their tap point.  The
dispatch stage (:meth:`repro.sched.ruu.RegisterUpdateUnit.dispatch_decoded`)
drains the buffer, oldest first, up to that width and the free wake-up
rows.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.frontend.fetch import FetchedInstruction

__all__ = ["DecodeStage"]


class DecodeStage:
    """Bounded FIFO of fetched instructions awaiting dispatch."""

    def __init__(self, width: int = 4, capacity: int = 16) -> None:
        if width <= 0 or capacity <= 0:
            raise SimulationError("decode width and capacity must be positive")
        self.width = width
        self.capacity = capacity
        self._buffer: deque[FetchedInstruction] = deque()
        self.decoded = 0

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def free_space(self) -> int:
        return self.capacity - len(self._buffer)

    def can_accept(self, n: int) -> bool:
        return n <= self.free_space

    def push(self, packet: list[FetchedInstruction]) -> None:
        """Accept a fetch packet (caller must check :meth:`can_accept`)."""
        if len(self._buffer) + len(packet) > self.capacity:
            raise SimulationError(
                f"decode buffer overflow: {len(packet)} into {self.free_space} free"
            )
        self._buffer.extend(packet)

    def flush(self) -> int:
        """Discard everything (mispredict recovery).  Returns count dropped."""
        n = len(self._buffer)
        self._buffer.clear()
        return n
