"""Unit tests for the metrics registry + Prometheus rendering."""

import math
import re

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_merged,
)

_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? '
    r'(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$'
)


class TestCounter:
    def test_inc(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c_total").inc(-1)

    def test_labels_are_independent_children(self):
        c = Counter("jobs_total", labelnames=("outcome",))
        c.labels("hit").inc(3)
        c.labels("miss").inc()
        assert c.labels("hit").value == 3
        assert c.labels("miss").value == 1
        assert c.labels("hit") is c.labels("hit")

    def test_wrong_label_arity(self):
        c = Counter("jobs_total", labelnames=("a", "b"))
        with pytest.raises(ValueError):
            c.labels("only-one")


class TestGauge:
    def test_set(self):
        g = Gauge("depth")
        g.set(5)
        g.set(4)
        assert g.value == 4.0


class TestHistogram:
    def test_observe_routes_to_buckets(self):
        h = Histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(99)
        assert h.counts == [1, 1, 1]
        assert h.sum == pytest.approx(99.55)

    def test_render_is_cumulative_with_inf(self):
        r = MetricsRegistry()
        h = r.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(99)
        text = render_merged({"w": r.snapshot()})
        assert 'lat_seconds_bucket{worker="w",le="0.1"} 1' in text
        assert 'lat_seconds_bucket{worker="w",le="1"} 2' in text
        assert 'lat_seconds_bucket{worker="w",le="+Inf"} 3' in text
        assert 'lat_seconds_count{worker="w"} 3' in text

    def test_labelled_children_share_bucket_layout(self):
        h = Histogram("lat_seconds", labelnames=("k",), buckets=(0.5,))
        h.labels("a").observe(0.1)
        h.labels("a").observe(9)
        child = h.labels("a")
        assert child.buckets == (0.5,)
        assert child.counts == [1, 1]

    def test_labelled_children_with_default_buckets(self):
        h = Histogram("lat_seconds", labelnames=("route",))
        h.labels("/x").observe(0.2)
        assert sum(h.labels("/x").counts) == 1


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("c_total") is r.counter("c_total")

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("x_total")
        with pytest.raises(ValueError):
            r.gauge("x_total")

    def test_render_exposition_format(self):
        r = MetricsRegistry()
        r.counter("a_total", "help a").inc()
        r.gauge("b", "help b").set(1.5)
        r.histogram("c_seconds", "help c", buckets=(1.0,)).observe(0.5)
        labelled = r.counter("d_total", "help d", ("k",))
        labelled.labels('va"lue\n').inc()
        text = render_merged({"w": r.snapshot()})
        assert text.endswith("\n")
        lines = text.splitlines()
        for line in lines:
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE.match(line), line
        assert "# TYPE a_total counter" in lines
        assert "# TYPE b gauge" in lines
        assert "# TYPE c_seconds histogram" in lines
        # label escaping: quote and newline survive as escapes
        assert 'd_total{k="va\\"lue\\n",worker="w"} 1' in text

    def test_inf_formatting(self):
        r = MetricsRegistry()
        r.gauge("g").set(math.inf)
        assert 'g{worker="w"} +Inf' in render_merged({"w": r.snapshot()})


class TestSnapshotAndMerge:
    def _registry(self):
        r = MetricsRegistry()
        r.counter("req_total", "requests", ("route",)).labels("/api").inc(3)
        r.gauge("up_seconds", "uptime").set(12.5)
        h = r.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        return r

    def test_snapshot_is_json_safe_and_complete(self):
        import json

        snap = self._registry().snapshot()
        json.dumps(snap)  # must round-trip through the store's JSON column
        assert snap["req_total"]["kind"] == "counter"
        assert snap["req_total"]["labels"] == ["route"]
        assert snap["req_total"]["series"] == [
            {"labels": ["/api"], "value": 3.0}
        ]
        assert snap["up_seconds"]["series"] == [{"labels": [], "value": 12.5}]
        assert snap["lat_seconds"]["buckets"] == [0.1, 1.0]
        assert snap["lat_seconds"]["series"] == [
            {"labels": [], "counts": [1, 0, 1], "sum": 5.05}
        ]

    def test_merge_appends_worker_label(self):
        from repro.telemetry import render_merged

        merged = render_merged(
            {"api-0": self._registry().snapshot(),
             "api-1": self._registry().snapshot()}
        )
        lines = merged.splitlines()
        for line in lines:
            if not line.startswith("#"):
                assert _SAMPLE.match(line), line
        assert 'req_total{route="/api",worker="api-0"} 3' in lines
        assert 'req_total{route="/api",worker="api-1"} 3' in lines
        assert 'up_seconds{worker="api-0"} 12.5' in lines
        # histograms re-emit cumulative buckets per worker
        assert 'lat_seconds_bucket{worker="api-0",le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{worker="api-0",le="+Inf"} 2' in lines
        assert 'lat_seconds_sum{worker="api-1"} 5.05' in lines
        assert 'lat_seconds_count{worker="api-1"} 2' in lines
        # HELP/TYPE emitted once per family, not per worker
        assert merged.count("# TYPE req_total counter") == 1

    def test_merge_skips_kind_mismatch(self):
        from repro.telemetry import render_merged

        good = {"m": {"kind": "counter", "help": "", "labels": [],
                      "series": [{"labels": [], "value": 1.0}]}}
        bad = {"m": {"kind": "gauge", "help": "", "labels": [],
                     "series": [{"labels": [], "value": 9.0}]}}
        merged = render_merged({"api-0": good, "api-1": bad})
        assert 'm{worker="api-0"} 1' in merged
        # the conflicting series is dropped, not mislabelled
        assert 'worker="api-1"' not in merged

    def test_merge_empty_is_valid(self):
        from repro.telemetry import render_merged

        assert render_merged({}) == "\n"
