"""Per-cycle processor probes and batch-engine instrumentation.

``ProcessorTelemetry`` is a cycle observer: pass it as a
:class:`~repro.core.processor.Processor`'s ``observer`` (the protocol is in
:mod:`repro.core.tracing`).  It drives

* registry counters/gauges (cycles, retirements, flushes,
  reconfigurations, steering decisions, windowed IPC, slot occupancy),
* a :class:`~repro.telemetry.timeseries.SeriesBank` of downsampled
  per-cycle series (windowed IPC, slot occupancy, per-type demand vs.
  Eq. 1 availability, winning-configuration CEM error, RUU/queue depth),
* a :class:`~repro.telemetry.spans.SpanTracer` of cycle-domain spans
  (reconfiguration start→finish, steering decisions, flush episodes),
* a :class:`~repro.telemetry.ledger.DecisionLedger` of steering decisions,
* with ``profile_stages``, per-stage wall-clock counters: the stage hooks
  time the span between one stage boundary and the next.

A processor with no observer pays one ``is not None`` test per hook.  A
telemetry object that records nothing (``active`` is ``False``, e.g.
:meth:`ProcessorTelemetry.disabled`) is stored by the processor as
``None``, so attaching it costs the same.

Sampling happens every ``sample_interval`` cycles; everything between
samples is O(1) counter arithmetic.
"""

from __future__ import annotations

from time import perf_counter

from repro.isa.futypes import FU_TYPES
from repro.telemetry.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.spans import SpanTracer
from repro.telemetry.timeseries import SeriesBank

__all__ = ["ProcessorTelemetry", "STAGES"]

#: pipeline stages named by the processor's ``on_stage`` hook, in execution
#: order.  The RUU performs wake-up, select and execute in one pass, so
#: they share a timer; ``tick`` covers the fabric/RUU count-down advance.
STAGES = ("retire", "wakeup_select_execute", "dispatch", "fetch", "steer", "tick")


class ProcessorTelemetry:
    """Per-cycle instrumentation attached to one processor instance."""

    def __init__(
        self,
        registry: MetricsRegistry | NullRegistry | None = None,
        *,
        series: bool = True,
        series_capacity: int = 2048,
        sample_interval: int = 32,
        tracer: SpanTracer | None = None,
        profile_stages: bool = False,
        ledger=None,
    ) -> None:
        self.registry = MetricsRegistry() if registry is None else registry
        self.series: SeriesBank | None = (
            SeriesBank(series_capacity) if series else None
        )
        self.sample_interval = max(1, int(sample_interval))
        self.tracer = tracer
        self.profile_stages = bool(profile_stages)
        #: optional steering decision ledger
        #: (:class:`~repro.telemetry.ledger.DecisionLedger`).
        self.ledger = ledger

        r = self.registry
        self._cycles = r.counter(
            "repro_sim_cycles_total", "Simulated cycles executed."
        )
        self._retired = r.counter(
            "repro_sim_retired_total", "Instructions retired."
        )
        self._flush_episodes = r.counter(
            "repro_sim_flushes_total", "Pipeline flush episodes."
        )
        self._squashed = r.counter(
            "repro_sim_squashed_total", "Window entries squashed by flushes."
        )
        self._reconfigs = r.counter(
            "repro_sim_reconfigurations_total",
            "Partial reconfigurations started.",
        )
        self._decisions = r.counter(
            "repro_sim_steering_decisions_total",
            "Steering selection changes (winning candidate switched).",
        )
        self._ipc_gauge = r.gauge(
            "repro_sim_windowed_ipc", "IPC over the most recent sample window."
        )
        self._occupancy_gauge = r.gauge(
            "repro_sim_slot_occupancy",
            "Occupied fraction of the reconfigurable slot array.",
        )
        self._cem_gauge = r.gauge(
            "repro_sim_cem_error",
            "6-bit CEM error of the winning configuration.",
        )
        stage_counter = r.counter(
            "repro_sim_stage_seconds_total",
            "Wall-clock seconds spent per pipeline stage (profiled runs).",
            ("stage",),
        )
        self._stage_counters = {s: stage_counter.labels(s) for s in STAGES}
        self._stage_wall = {s: 0.0 for s in STAGES}
        self._stage_wall_at_sample = dict(self._stage_wall)
        #: the stage being timed and its start (profile_stages only).
        self._stage: str | None = None
        self._stage_start = 0.0

        # sampling / change-detection state
        self._since_sample = 0
        self._retired_at_sample = 0
        self._prev_selection: int | None = None
        self._prev_loads = 0

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def disabled(cls) -> "ProcessorTelemetry":
        """A fully inert instance (``active`` is ``False``)."""
        return cls(registry=NULL_REGISTRY, series=False)

    @property
    def active(self) -> bool:
        """Whether this object records anything when attached."""
        return (
            bool(self.registry)
            or self.series is not None
            or self.tracer is not None
            or self.profile_stages
            or self.ledger is not None
        )

    # ------------------------------------------------------------ hot hooks
    def on_stage(self, proc, stage: str) -> None:
        """Stage boundary: with ``profile_stages``, close the previous
        stage's timer and open ``stage``'s."""
        if self.profile_stages:
            now = perf_counter()
            if self._stage is not None:
                self.stage_seconds(self._stage, now - self._stage_start)
            self._stage = stage
            self._stage_start = now

    def on_cycle(self, proc, packet, dispatched, issued, retired, flushed) -> None:
        """Called by the processor at the end of every simulated cycle.

        ``proc.cycle_count`` still names the cycle just executed (the
        increment happens after this hook); fabric/RUU state is post-tick.
        """
        if self._stage is not None:
            self.stage_seconds(self._stage, perf_counter() - self._stage_start)
            self._stage = None
        cycle = proc.cycle_count
        self._cycles.inc()
        if retired:
            self._retired.inc(len(retired))
        if flushed:
            self._flush_episodes.inc()
            self._squashed.inc(flushed)
            if self.tracer is not None:
                self.tracer.instant(
                    "flush", cycle, track="pipeline", squashed=flushed
                )
        manager = getattr(proc.policy, "manager", None)
        if manager is not None:
            selection = manager.last_selection
            if selection is not None and selection != self._prev_selection:
                self._decisions.inc()
                if self.tracer is not None:
                    self.tracer.instant(
                        "steer",
                        cycle,
                        track="steering",
                        selection=selection,
                        error=manager.last_error,
                    )
                self._prev_selection = selection
            loads = manager.stats.loads
            if loads != self._prev_loads:
                self._reconfigs.inc(loads - self._prev_loads)
                plan = manager.last_load
                if self.tracer is not None and plan is not None:
                    self.tracer.complete(
                        f"reconfig {plan.fu_type.short_name}@{plan.head}",
                        ts=cycle,
                        dur=max(1, plan.latency),
                        track="fabric",
                        evicted=[t.short_name for t in plan.evicted],
                    )
                self._prev_loads = loads
            if self.ledger is not None:
                self.ledger.on_cycle(proc, cycle, manager)
        self._since_sample += 1
        if self._since_sample >= self.sample_interval:
            self._sample(proc, cycle, manager)

    def stage_seconds(self, stage: str, seconds: float) -> None:
        """Accumulate wall time for one stage of one cycle."""
        self._stage_wall[stage] += seconds
        self._stage_counters[stage].inc(seconds)

    # ------------------------------------------------------------- sampling
    def _sample(self, proc, cycle: int, manager) -> None:
        interval = self._since_sample
        self._since_sample = 0

        retired_total = proc.ruu.retired
        ipc = (retired_total - self._retired_at_sample) / interval
        self._retired_at_sample = retired_total
        self._ipc_gauge.set(ipc)

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
        self._occupancy_gauge.set(occupancy)
        if manager is not None:
            self._cem_gauge.set(manager.last_error)

        bank = self.series
        if bank is not None:
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
            if manager is not None:
                bank.append("cem_error", cycle, manager.last_error)

        if self.profile_stages and self.tracer is not None:
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
            "sample_interval": self.sample_interval,
            "series": self.series.to_dict() if self.series is not None else {},
        }
        if self.profile_stages:
            out["stage_wall_seconds"] = {
                s: round(v, 6) for s, v in self._stage_wall.items()
            }
        if self.tracer is not None:
            out["span_events"] = len(self.tracer)
            out["span_dropped"] = self.tracer.dropped
        if self.ledger is not None:
            out["decision_count"] = self.ledger.seen
        return out

    def summary_lines(self) -> list[str]:
        """Human-readable digest for the CLI."""
        lines = [
            f"cycles={int(self._cycles.value)}"
            f" retired={int(self._retired.value)}"
            f" flushes={int(self._flush_episodes.value)}"
            f" reconfigs={int(self._reconfigs.value)}"
            f" steer_decisions={int(self._decisions.value)}",
        ]
        if self.series is not None:
            kept = {n: len(self.series.series(n)) for n in self.series.names()}
            total = sum(kept.values())
            lines.append(
                f"series: {len(kept)} names, {total} points kept "
                f"(interval={self.sample_interval})"
            )
        if self.tracer is not None:
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
