"""Per-cycle processor probes.

``ProcessorTelemetry`` is a cycle observer: pass it as a
:class:`~repro.core.processor.Processor`'s ``observer`` (the protocol is in
:mod:`repro.core.tracing`).  It is one recipe and owns its parts:

* a :class:`~repro.telemetry.timeseries.SeriesBank` of downsampled
  per-cycle series (windowed IPC, slot occupancy, per-type demand vs.
  Eq. 1 availability, winning-configuration CEM error, RUU/queue depth),
  sampled every :data:`SAMPLE_INTERVAL` cycles;
* a :class:`~repro.telemetry.spans.SpanTracer` of cycle-domain spans
  (reconfiguration start→finish, steering decisions, flush episodes);
* a :class:`~repro.telemetry.ledger.DecisionLedger` of steering decisions;
* with ``profile_stages``, per-stage wall-clock totals: the stage hooks
  time the span between one stage boundary and the next.

Its sizes are those of the served ``steering-telemetry`` payload.  A
processor with no observer pays one ``is not None`` test per hook.
"""

from __future__ import annotations

from time import perf_counter

from repro.isa.futypes import FU_TYPES
from repro.telemetry.ledger import DecisionLedger
from repro.telemetry.spans import SpanTracer
from repro.telemetry.timeseries import SeriesBank

__all__ = ["ProcessorTelemetry", "SAMPLE_INTERVAL", "STAGES"]

#: pipeline stages named by the processor's ``on_stage`` hook, in execution
#: order.  The RUU performs wake-up, select and execute in one pass, so
#: they share a timer; ``tick`` covers the fabric/RUU count-down advance.
STAGES = ("retire", "wakeup_select_execute", "dispatch", "fetch", "steer", "tick")

#: cycles between two samples of the series bank.
SAMPLE_INTERVAL = 32


class ProcessorTelemetry:
    """Per-cycle instrumentation attached to one processor instance."""

    def __init__(self, profile_stages: bool = False) -> None:
        self.series = SeriesBank(2048)
        self.tracer = SpanTracer(max_events=8192)
        self.ledger = DecisionLedger(capacity=256, window=64)
        self.profile_stages = bool(profile_stages)
        self._stage_wall = {s: 0.0 for s in STAGES}
        self._stage_wall_at_sample = dict(self._stage_wall)
        #: the stage being timed and its start (profile_stages only).
        self._stage: str | None = None
        self._stage_start = 0.0

        # sampling / change-detection state
        self._since_sample = 0
        self._retired_at_sample = 0
        self._prev_loads = 0

    # ------------------------------------------------------------ hot hooks
    def on_stage(self, proc, stage: str) -> None:
        """Stage boundary: with ``profile_stages``, close the previous
        stage's timer and open ``stage``'s."""
        if self.profile_stages:
            now = perf_counter()
            if self._stage is not None:
                self._stage_wall[self._stage] += now - self._stage_start
            self._stage = stage
            self._stage_start = now

    def on_cycle(self, proc, packet, dispatched, issued, retired, flushed) -> None:
        """Called by the processor at the end of every simulated cycle.

        ``proc.cycle_count`` still names the cycle just executed (the
        increment happens after this hook); fabric/RUU state is post-tick.
        """
        if self._stage is not None:
            self._stage_wall[self._stage] += perf_counter() - self._stage_start
            self._stage = None
        cycle = proc.cycle_count
        tracer = self.tracer
        if flushed:
            tracer.instant("flush", cycle, track="pipeline", squashed=flushed)
        policy = proc.policy
        result = policy.last_result
        if result is not None:
            if self.ledger.on_cycle(proc, cycle, result):
                tracer.instant(
                    "steer",
                    cycle,
                    track="steering",
                    selection=result.index,
                    error=result.errors[result.index],
                )
            loads = policy.loader.history
            if len(loads) != self._prev_loads:
                plan = loads[-1]
                tracer.complete(
                    f"reconfig {plan.fu_type.short_name}@{plan.head}",
                    ts=cycle,
                    dur=max(1, plan.latency),
                    track="fabric",
                    evicted=[t.short_name for t in plan.evicted],
                )
                self._prev_loads = len(loads)
        self._since_sample += 1
        if self._since_sample >= SAMPLE_INTERVAL:
            self._sample(proc, cycle, result)

    # ------------------------------------------------------------- sampling
    def _sample(self, proc, cycle: int, result) -> None:
        interval = self._since_sample
        self._since_sample = 0

        retired_total = proc.ruu.retired
        ipc = (retired_total - self._retired_at_sample) / interval
        self._retired_at_sample = retired_total

        fabric = proc.fabric
        slots = fabric.rfus.slots
        occupied = 0
        reconfiguring = 0
        for slot in slots:
            if not slot.is_empty:
                occupied += 1
            if slot.is_reconfiguring:
                reconfiguring += 1
        occupancy = occupied / len(slots) if slots else 0.0

        bank = self.series
        bank.append("windowed_ipc", cycle, ipc)
        bank.append("slot_occupancy", cycle, occupancy)
        bank.append("reconfiguring_slots", cycle, reconfiguring)
        bank.append("ruu_depth", cycle, len(proc.ruu))
        ready = proc.ruu.ready_unscheduled()
        bank.append("ready_depth", cycle, len(ready))
        demand: dict = {}
        for instr in ready:
            demand[instr.fu_type] = demand.get(instr.fu_type, 0) + 1
        idle = fabric.idle_counts()
        bank.append("availability_bits", cycle, fabric.availability_bits())
        for t in FU_TYPES:
            bank.append(f"demand_{t.short_name}", cycle, demand.get(t, 0))
            bank.append(f"avail_{t.short_name}", cycle, idle[t])
        if result is not None:
            bank.append("cem_error", cycle, result.errors[result.index])

        if self.profile_stages:
            deltas = {
                s: (self._stage_wall[s] - self._stage_wall_at_sample[s]) * 1e6
                for s in STAGES
            }
            self.tracer.counter("stage_us", cycle, deltas, track="profile")
            self._stage_wall_at_sample = dict(self._stage_wall)

    # -------------------------------------------------------------- exports
    def snapshot(self) -> dict:
        """JSON-serialisable dump: the payload persisted with run results."""
        out = {
            "version": 1,
            "sample_interval": SAMPLE_INTERVAL,
            "series": self.series.to_dict(),
        }
        if self.profile_stages:
            out["stage_wall_seconds"] = {
                s: round(v, 6) for s, v in self._stage_wall.items()
            }
        out["span_events"] = len(self.tracer)
        out["span_dropped"] = self.tracer.dropped
        out["decision_count"] = self.ledger.seen
        return out

    def summary_lines(self, result) -> list[str]:
        """Human-readable digest of the observed run ``result`` (its
        :class:`~repro.core.results.SimulationResult`) for the CLI."""
        lines = [
            f"cycles={result.cycles}"
            f" retired={result.retired}"
            f" flushes={result.flushes}"
            f" reconfigs={result.reconfigurations}"
            f" steer_decisions={self.ledger.opened}",
        ]
        kept = {n: len(self.series.series(n)) for n in self.series.names()}
        lines.append(
            f"series: {len(kept)} names, {sum(kept.values())} points kept "
            f"(interval={SAMPLE_INTERVAL})"
        )
        lines.append(
            f"trace: {len(self.tracer)} events"
            + (f" ({self.tracer.dropped} dropped)" if self.tracer.dropped else "")
        )
        if self.profile_stages:
            total = sum(self._stage_wall.values())
            parts = ", ".join(
                f"{s}={self._stage_wall[s] / total:.0%}"
                for s in STAGES
                if total
            )
            lines.append(f"stage wall: {parts}" if parts else "stage wall: n/a")
        return lines
