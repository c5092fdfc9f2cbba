"""Batch-engine telemetry: job outcomes, queue waits, worker heartbeats.

``BatchTelemetry`` plugs into :func:`repro.evaluation.batch.run_many`.
It rides the engine's existing completion path (the same place progress
callbacks fire), so enabling it changes no scheduling behaviour:

* ``repro_batch_jobs_total{outcome=...}`` — executed / cache_hit / deduped;
* ``repro_batch_job_queue_wait_seconds`` — submission→execution-start lag
  (parallel path; the worker reports its own run time, the remainder of
  the round-trip is queue wait);
* ``repro_batch_job_run_seconds`` — per-job wall time;
* ``repro_batch_jobs_inflight`` — submitted minus finished;
* ``repro_batch_last_completion_timestamp_seconds`` — worker heartbeat.

With a :class:`~repro.telemetry.spans.SpanTracer` attached, each executed
job also becomes a wall-clock span on the ``batch`` track.
"""

from __future__ import annotations

import time

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanTracer

__all__ = ["BatchTelemetry"]


class BatchTelemetry:
    """Counters + histograms + heartbeat for one or more ``run_many`` calls."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
    ) -> None:
        self.registry = MetricsRegistry() if registry is None else registry
        self.tracer = tracer
        self._epoch = time.perf_counter()
        r = self.registry
        self.jobs = r.counter(
            "repro_batch_jobs_total",
            "Batch jobs resolved, by outcome.",
            ("outcome",),
        )
        self.queue_wait = r.histogram(
            "repro_batch_job_queue_wait_seconds",
            "Seconds between pool submission and execution start.",
        )
        self.run_wall = r.histogram(
            "repro_batch_job_run_seconds",
            "Wall-clock seconds executing one simulation job.",
        )
        self.inflight = r.gauge(
            "repro_batch_jobs_inflight",
            "Jobs submitted to the engine and not yet finished.",
        )
        self.heartbeat = r.gauge(
            "repro_batch_last_completion_timestamp_seconds",
            "Unix time of the most recent job completion (worker heartbeat).",
        )

    def _beat(self) -> None:
        self.heartbeat.set(time.time())

    def cache_hit(self) -> None:
        self.jobs.labels("cache_hit").inc()
        self._beat()

    def deduped(self, count: int) -> None:
        if count > 0:
            self.jobs.labels("deduped").inc(count)

    def submitted(self, count: int = 1) -> None:
        self.inflight.inc(count)

    def finished(
        self,
        label: str,
        run_seconds: float | None = None,
        queue_wait: float | None = None,
    ) -> None:
        self.inflight.dec()
        self.jobs.labels("executed").inc()
        if run_seconds is not None:
            self.run_wall.observe(run_seconds)
        if queue_wait is not None:
            self.queue_wait.observe(max(0.0, queue_wait))
        if self.tracer is not None and run_seconds is not None:
            end_us = (time.perf_counter() - self._epoch) * 1e6
            self.tracer.complete(
                label or "job",
                ts=max(0.0, end_us - run_seconds * 1e6),
                dur=run_seconds * 1e6,
                track="batch",
            )
        self._beat()
