"""Unit tests for the Chrome trace-event span tracer."""

import json

from repro.telemetry import SpanTracer


class TestSpanTracer:
    def test_event_shapes(self):
        t = SpanTracer()
        t.complete("reconfig LSU@3", ts=100, dur=8, track="fabric", evicted=["IALU"])
        t.instant("flush", ts=50, track="pipeline", squashed=4)
        t.counter("stage_us", ts=32, values={"fetch": 1.5}, track="profile")
        doc = t.to_chrome_trace()
        events = doc["traceEvents"]
        # three thread_name metadata records + the three events
        phases = [e["ph"] for e in events]
        assert phases.count("M") == 3
        assert "X" in phases and "i" in phases and "C" in phases
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["dur"] == 8.0 and complete["ts"] == 100.0
        assert complete["args"]["evicted"] == ["IALU"]

    def test_tracks_get_distinct_tids_with_names(self):
        t = SpanTracer()
        t.instant("a", 0, track="one")
        t.instant("b", 0, track="two")
        doc = t.to_chrome_trace()
        names = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert set(names) == {"one", "two"}
        assert len(set(names.values())) == 2

    def test_bounded_buffer_counts_drops(self):
        t = SpanTracer(max_events=10)
        for i in range(25):
            t.instant("e", i)
        assert len(t) == 10
        assert t.dropped == 15
        assert t.to_chrome_trace()["otherData"]["dropped_events"] == 15

    def test_write_is_valid_json(self, tmp_path):
        t = SpanTracer()
        t.complete("span", 0, 1)
        path = tmp_path / "trace.json"
        t.write(path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
