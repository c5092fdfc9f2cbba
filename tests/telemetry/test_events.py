"""Structured JSON event log: emit, file sink, canonical lines, reads."""

import json

from repro.telemetry import EventLog, events_path_for, read_events
from repro.utils.canonical import canonical_dumps


class TestEmit:
    def test_emit_returns_the_canonical_record(self, tmp_path):
        log = EventLog("api-0", tmp_path / "events.jsonl")
        record = log.emit("job_claimed", job_id="j1", queue_wait_s=0.5)
        assert record["event"] == "job_claimed"
        assert record["proc"] == "api-0"
        assert record["job_id"] == "j1"
        assert isinstance(record["ts"], float)
        assert isinstance(record["pid"], int)
        # no trace given -> no trace key (absent, not null)
        assert "trace" not in record
        log.close()

    def test_trace_id_is_kept_when_given(self, tmp_path):
        log = EventLog("api-0", tmp_path / "events.jsonl")
        record = log.emit("http_request", trace="cafe0123cafe0123", path="/")
        assert record["trace"] == "cafe0123cafe0123"
        log.close()


class TestFileSink:
    def test_lines_are_canonical_json(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        log = EventLog("serve", path=sink)
        record = log.emit("worker_started", worker="sim-0")
        log.close()
        lines = sink.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0] == canonical_dumps(record)
        assert json.loads(lines[0])["worker"] == "sim-0"

    def test_sink_file_appears_on_first_emit_only(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        log = EventLog("main", sink)
        assert not sink.exists()  # delay=True: no empty files left behind
        log.emit("boot")
        assert sink.exists()
        log.close()

    def test_two_logs_append_to_one_sink(self, tmp_path):
        """Supervisor workers share one sink file per store."""
        sink = tmp_path / "events.jsonl"
        a, b = EventLog("api-0", path=sink), EventLog("sim-0", path=sink)
        a.emit("x")
        b.emit("y")
        a.close(), b.close()
        procs = [json.loads(l)["proc"] for l in sink.read_text().splitlines()]
        assert procs == ["api-0", "sim-0"]


class TestReadEvents:
    def test_round_trip_with_filters_and_limit(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        log = EventLog("main", sink)
        for i in range(5):
            log.emit("tick", trace="cafe0123cafe0123" if i % 2 else None, n=i)
        log.close()
        assert [r["n"] for r in read_events(sink)] == [0, 1, 2, 3, 4]
        assert [r["n"] for r in read_events(sink, limit=2)] == [3, 4]
        assert [
            r["n"] for r in read_events(sink, trace="cafe0123cafe0123")
        ] == [1, 3]

    def test_malformed_and_non_object_lines_are_skipped(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        sink.write_text(
            '{"event": "ok", "n": 1}\n'
            "{torn write from a dying proc\n"
            "[1, 2, 3]\n"
            '{"event": "ok", "n": 2}\n'
        )
        assert [r["n"] for r in read_events(sink)] == [1, 2]

    def test_missing_file_is_empty_not_an_error(self, tmp_path):
        assert read_events(tmp_path / "nope.jsonl") == []


class TestEventsPathFor:
    def test_pairs_with_the_store_file(self):
        assert events_path_for("runs.sqlite") == "runs.sqlite.events.jsonl"

    def test_memory_stores_get_no_sink(self):
        assert events_path_for(None) is None
        assert events_path_for(":memory:") is None
