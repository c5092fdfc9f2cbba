"""Metrics registry: counters, gauges, histograms + Prometheus rendering.

The registry is deliberately tiny and dependency-free.  Three metric
kinds cover everything the serving layer needs:

``Counter``
    Monotonically increasing float (``inc``).
``Gauge``
    A float set to the current value of something (``set``).
``Histogram``
    Fixed bucket layout (``observe``), rendered with cumulative
    ``_bucket{le=...}`` / ``_sum`` / ``_count`` samples.

All three support Prometheus-style labels through ``labels(*values)``,
which returns a child metric bound to those label values.  A registry
renders nothing itself: every server worker publishes its
:meth:`MetricsRegistry.snapshot` into the run store, and ``GET
/metrics`` answers with :func:`render_merged` over every live worker's
snapshot, each series ``worker``-labelled (text exposition format,
version 0.0.4).
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "render_merged",
]

# Seconds-scale buckets tuned for request handling and per-job wall time:
# sub-millisecond cache hits up to multi-second simulations.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_str(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared parent/child plumbing for labelled metrics."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], _Metric] = {}
        self._lock = threading.Lock()

    def labels(self, *values) -> "_Metric":
        values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label values, "
                f"got {len(values)}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = type(self)(self.name, self.help)
                # Child carries its bound values for rendering.
                child._labelvalues = values  # type: ignore[attr-defined]
                self._children[values] = child
            return child

    def _series(self):
        """Yield (labelvalues, child) for every concrete series."""
        if self.labelnames:
            with self._lock:
                items = list(self._children.items())
            for values, child in items:
                yield values, child
        else:
            yield (), self


class Counter(_Metric):
    kind = "counter"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        # One slot per finite bucket plus the +Inf overflow slot.
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0

    def labels(self, *values):
        child = super().labels(*values)
        # Children created by the generic parent lack the bucket layout.
        if child.buckets != self.buckets:
            child.buckets = self.buckets
            child.counts = [0] * (len(self.buckets) + 1)
        return child

    def observe(self, value: float) -> None:
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class MetricsRegistry:
    """Named metric store; one per server worker process."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, tuple(labelnames), **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name, help="", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name, help="", labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def snapshot(self) -> dict:
        """JSON-safe dump of every metric family and concrete series.

        The multi-process server's workers publish these into the run
        store; whichever worker answers a ``/metrics`` scrape merges all
        fresh snapshots with :func:`render_merged`.
        """
        out: dict = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            family: dict = {
                "kind": metric.kind,
                "help": metric.help,
                "labels": list(metric.labelnames),
                "series": [],
            }
            if isinstance(metric, Histogram):
                family["buckets"] = list(metric.buckets)
            for values, child in metric._series():
                series: dict = {"labels": list(values)}
                if isinstance(metric, Histogram):
                    series["counts"] = list(child.counts)
                    series["sum"] = child.sum
                else:
                    series["value"] = child.value
                family["series"].append(series)
            out[metric.name] = family
        return out


def render_merged(snapshots: dict[str, dict]) -> str:
    """Merge per-worker registry snapshots into one text exposition.

    ``snapshots`` maps a worker name (``api-0``) to that worker's
    :meth:`MetricsRegistry.snapshot`.  Every series is re-emitted with a
    ``worker`` label appended, so nothing is summed away — Prometheus
    aggregates across workers at query time, and per-worker skew (a
    respawned worker's reset counters, one hot worker) stays visible.
    """
    lines: list[str] = []
    families: dict[str, dict] = {}
    order: list[str] = []
    for worker in sorted(snapshots):
        for name, family in snapshots[worker].items():
            if name not in families:
                families[name] = family
                order.append(name)
    for name in order:
        family = families[name]
        kind = family.get("kind", "untyped")
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for worker in sorted(snapshots):
            match = snapshots[worker].get(name)
            if match is None or match.get("kind") != kind:
                continue
            labelnames = tuple(match.get("labels", ()))
            for series in match.get("series", ()):
                values = tuple(str(v) for v in series.get("labels", ()))
                if kind == "histogram":
                    buckets = match.get("buckets", ())
                    counts = series.get("counts", ())
                    cumulative = 0
                    for bound, n in zip(buckets, counts):
                        cumulative += n
                        label = _label_str(
                            labelnames + ("worker", "le"),
                            values + (worker, _format_value(bound)),
                        )
                        lines.append(f"{name}_bucket{label} {cumulative}")
                    if len(counts) > len(buckets):
                        cumulative += counts[-1]
                    label = _label_str(
                        labelnames + ("worker", "le"), values + (worker, "+Inf")
                    )
                    lines.append(f"{name}_bucket{label} {cumulative}")
                    plain = _label_str(labelnames + ("worker",), values + (worker,))
                    lines.append(
                        f"{name}_sum{plain} "
                        f"{_format_value(float(series.get('sum', 0.0)))}"
                    )
                    lines.append(f"{name}_count{plain} {cumulative}")
                else:
                    label = _label_str(
                        labelnames + ("worker",), values + (worker,)
                    )
                    lines.append(
                        f"{name}{label} "
                        f"{_format_value(float(series.get('value', 0.0)))}"
                    )
    return "\n".join(lines) + "\n"

