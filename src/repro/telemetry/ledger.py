"""The steering decision ledger: *why* each reconfiguration was chosen.

PR 4 telemetry shows **that** the policy switched configurations; the
ledger records the inputs behind every switch — the per-type demand in
the ready queue, the fabric's idle units and Eq. 1 availability bits,
the candidate CEM errors the selection unit scored, the winning
configuration — plus a throughput prediction and, once the next window
of cycles has retired, the realized IPC it can be judged against.

The buffer is a :class:`~repro.telemetry.timeseries.StrideSeries` of
finalized decisions keyed by decision cycle: it keeps at most
``capacity``; when full, every second stored record is dropped and the
keep-stride doubles, so arbitrarily long runs hold O(capacity) memory
while the kept decisions stay evenly spread over the run.  ``dropped``
counts thinned records.

Prediction model (deliberately simple and documented — the point is to
measure its error, feeding the ROADMAP's queuing-model ablation):
``predicted_ipc = min(retire_width, sum_t min(demand_t, chosen_t))``,
the demand the chosen configuration could serve per cycle if nothing
else stalled.  ``realized_ipc`` is retirements over the next ``window``
cycles (or up to the next decision, whichever comes first).

Attaching a ledger must never change simulation results — the fuzzer's
``metamorphic-telemetry`` check and ``tests/telemetry/test_ledger.py`` pin
bit-identical ``SimulationResult.to_dict()`` with the ledger on and off.
"""

from __future__ import annotations

from repro.isa.futypes import FU_TYPES
from repro.telemetry.timeseries import StrideSeries

__all__ = ["DecisionLedger"]


class DecisionLedger:
    """Bounded, self-coarsening record of steering decisions."""

    __slots__ = (
        "window",
        "_records",
        "_pending",
        "_pending_retired",
        "_prev_selection",
    )

    def __init__(self, capacity: int = 256, window: int = 64) -> None:
        self._records = StrideSeries(int(capacity))
        self.window = max(1, int(window))
        self._pending: dict | None = None
        self._pending_retired = 0
        self._prev_selection: int | None = None

    # ------------------------------------------------------------ hot hook
    def on_cycle(self, proc, cycle: int, result) -> bool:
        """Driven by ``ProcessorTelemetry.on_cycle`` (post-tick state) with
        the cycle's selection ``result`` (the steering policy's
        ``last_result``); returns whether the selection changed, opening a
        decision.

        Pure observation: reads the processor and the result, never
        writes them.  Cost is O(1) except in the cycle of an actual
        selection change, where the ready queue is scanned once.
        """
        pending = self._pending
        if pending is not None and cycle - pending["cycle"] >= self.window:
            self._finalize(proc, cycle)
        selection = result.index
        if selection == self._prev_selection:
            return False
        self._prev_selection = selection
        if self._pending is not None:
            # a new decision closes the previous window early
            self._finalize(proc, cycle)
        self._open(proc, cycle, result)
        return True

    # ------------------------------------------------------------ internals
    def _open(self, proc, cycle: int, result) -> None:
        demand: dict = {}
        for instr in proc.ruu.ready_unscheduled():
            demand[instr.fu_type] = demand.get(instr.fu_type, 0) + 1
        idle = proc.fabric.idle_counts()
        selection = result.index
        chosen = result.config
        chosen_counts = chosen.counts if chosen is not None else {}
        servable = sum(
            min(demand.get(t, 0), chosen_counts.get(t, 0)) for t in FU_TYPES
        )
        self._pending = {
            "cycle": cycle,
            "selection": selection,
            "config": chosen.name if chosen is not None else None,
            "error": result.errors[selection],
            "errors": list(result.errors),
            "required": list(result.required),
            "demand": {t.short_name: demand.get(t, 0) for t in FU_TYPES},
            "idle": {t.short_name: idle[t] for t in FU_TYPES},
            "availability_bits": proc.fabric.availability_bits(),
            "predicted_ipc": float(min(proc.params.retire_width, servable)),
            "realized_ipc": None,
            "prediction_error": None,
            "window": None,
        }
        self._pending_retired = proc.ruu.retired

    def _finalize(self, proc, cycle: int) -> None:
        record = self._pending
        self._pending = None
        span = max(1, cycle - record["cycle"])
        realized = (proc.ruu.retired - self._pending_retired) / span
        record["realized_ipc"] = realized
        record["prediction_error"] = realized - record["predicted_ipc"]
        record["window"] = span
        self._records.append(record["cycle"], record)

    # -------------------------------------------------------------- exports
    @property
    def capacity(self) -> int:
        return self._records.capacity

    @property
    def stride(self) -> int:
        return self._records.stride

    @property
    def seen(self) -> int:
        """Finalized decisions offered to the buffer (kept or thinned)."""
        return self._records.seen

    @property
    def opened(self) -> int:
        """Every decision so far: the finalized ones and the open one."""
        return self.seen + (self._pending is not None)

    @property
    def dropped(self) -> int:
        return self.seen - len(self._records)

    def decisions(self) -> list[dict]:
        """Kept decisions, oldest first; the still-open one (if any) last."""
        out = [dict(r) for _, r in self._records.samples()]
        if self._pending is not None:
            out.append(dict(self._pending))
        return out

    def to_dict(self) -> dict:
        """JSON-safe payload persisted beside the run's result record."""
        return {
            "version": 1,
            "capacity": self.capacity,
            "window": self.window,
            "stride": self.stride,
            "seen": self.seen,
            "dropped": self.dropped,
            "decisions": self.decisions(),
        }
