"""Unified observability layer: metrics, time series, span tracing.

Cooperating pieces, all stdlib-only:

* :mod:`repro.telemetry.registry` — counters/gauges/histograms whose
  per-worker snapshots render as one Prometheus exposition;
* :mod:`repro.telemetry.timeseries` — bounded stride-downsampled series;
* :mod:`repro.telemetry.spans` — Chrome trace-event spans (Perfetto);
* :mod:`repro.telemetry.probes` — the per-cycle processor hook;
* :mod:`repro.telemetry.events` — the structured JSON event log;
* :mod:`repro.telemetry.tracing2` — trace-context ids + the merged
  request-to-retire Perfetto view;
* :mod:`repro.telemetry.ledger` — the steering decision ledger.

See ``docs/observability.md`` for the probe catalogue and usage.
"""

from repro.telemetry.events import EventLog, events_path_for, read_events
from repro.telemetry.ledger import DecisionLedger
from repro.telemetry.probes import STAGES, ProcessorTelemetry
from repro.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_merged,
)
from repro.telemetry.spans import SpanTracer
from repro.telemetry.timeseries import SeriesBank, StrideSeries
from repro.telemetry.tracing2 import (
    TRACE_HEADER,
    is_trace_id,
    merge_job_trace,
    mint_trace_id,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DecisionLedger",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProcessorTelemetry",
    "STAGES",
    "SeriesBank",
    "SpanTracer",
    "StrideSeries",
    "TRACE_HEADER",
    "events_path_for",
    "is_trace_id",
    "merge_job_trace",
    "mint_trace_id",
    "read_events",
    "render_merged",
]
