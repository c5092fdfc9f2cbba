"""Serving-layer observability: /metrics, /timeseries, access logs.

All exercised through the pure handler (``ServingApp.handle``) — no
sockets, matching the rest of the API suite.
"""

import json
import re

import pytest

from repro.core.params import ProcessorParams
from repro.evaluation.batch import ResultCache, SimJob, run_many
from repro.serving.app import ServingApp
from repro.serving.jobs import StoreJobQueue
from repro.serving.store import RunStore
from repro.telemetry import MetricsRegistry
from repro.workloads.kernels import checksum

_PARAMS = ProcessorParams(reconfig_latency=8)

_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? '
    r'(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$'
)


@pytest.fixture()
def warm():
    """Store + cache seeded with one plain and one telemetry-bearing run."""
    store = RunStore()
    cache = ResultCache(store=store)
    program = checksum(iterations=20).program
    jobs = [
        SimJob("steering", program, _PARAMS, max_cycles=50_000,
               label="plain"),
        SimJob("steering-telemetry", program, _PARAMS, max_cycles=50_000,
               label="instrumented"),
    ]
    run_many(jobs, cache=cache)
    registry = MetricsRegistry()
    app = ServingApp(
        store, cache=cache,
        jobs=StoreJobQueue(store, cache=cache, registry=registry),
        registry=registry,
    )
    yield app, store, cache
    store.close()


def _run_id(store, experiment):
    runs = store.list_runs(experiment=experiment)
    assert runs, f"no run recorded under {experiment}"
    return runs[0]["run_id"]


class TestMetricsEndpoint:
    def test_exposition_format(self, warm):
        app, _, _ = warm
        app.handle("GET", "/api/health")
        status, headers, body = app.handle("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        lines = body.decode().splitlines()
        assert lines
        for line in lines:
            if line.startswith("#") or not line:
                continue
            assert _SAMPLE.match(line), line

    def test_expected_families_present(self, warm):
        app, _, _ = warm
        app.handle("GET", "/api/health")
        app.handle("GET", "/api/runs")
        text = app.handle("GET", "/metrics")[2].decode()
        for family in (
            "repro_http_requests_total",
            "repro_http_request_seconds_bucket",
            "repro_store_runs",
            "repro_cache_memory_entries",
            "repro_jobs_pending",
            "repro_last_run_metric",
            "repro_uptime_seconds",
        ):
            assert family in text, f"missing {family}"
        assert "repro_store_runs 2" in text

    def test_request_counter_labels_use_route_templates(self, warm):
        app, store, _ = warm
        rid = _run_id(store, "sim/steering")
        app.handle("GET", f"/api/runs/{rid}")
        app.handle("GET", f"/api/runs/{rid}")
        app.handle("GET", "/definitely/not/a/route")
        text = app.handle("GET", "/metrics")[2].decode()
        assert (
            'repro_http_requests_total{method="GET",'
            'route="/api/runs/{id}",status="200"} 2' in text
        )
        # unknown paths collapse into one label value: bounded cardinality
        assert 'route="(other)",status="404"' in text
        assert f"/api/runs/{rid}" not in text

    def test_metrics_scrape_itself_is_counted(self, warm):
        app, _, _ = warm
        app.handle("GET", "/metrics")
        text = app.handle("GET", "/metrics")[2].decode()
        assert 'route="/metrics",status="200"' in text


class TestTimeseriesEndpoint:
    def test_served_for_instrumented_run(self, warm):
        app, store, _ = warm
        rid = _run_id(store, "sim/steering-telemetry")
        status, headers, body = app.handle(
            "GET", f"/api/runs/{rid}/timeseries"
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["run_id"] == rid
        series = doc["timeseries"]["series"]
        assert "windowed_ipc" in series and "slot_occupancy" in series
        assert len(series["windowed_ipc"]["x"]) >= 2
        assert "immutable" in headers["Cache-Control"]

    def test_etag_revalidation(self, warm):
        app, store, _ = warm
        rid = _run_id(store, "sim/steering-telemetry")
        _, headers, _ = app.handle("GET", f"/api/runs/{rid}/timeseries")
        etag = headers["ETag"]
        status, _, body = app.handle(
            "GET", f"/api/runs/{rid}/timeseries",
            headers={"If-None-Match": etag},
        )
        assert status == 304 and body == b""

    def test_404_for_run_without_series(self, warm):
        app, store, _ = warm
        rid = _run_id(store, "sim/steering")
        status, _, _ = app.handle("GET", f"/api/runs/{rid}/timeseries")
        assert status == 404

    def test_404_for_unknown_run(self, warm):
        app, _, _ = warm
        status, _, _ = app.handle("GET", "/api/runs/deadbeefdeadbeef/timeseries")
        assert status == 404


class TestDecisionsEndpoint:
    def test_served_for_ledger_enabled_run(self, warm):
        app, store, _ = warm
        rid = _run_id(store, "sim/steering-telemetry")
        status, headers, body = app.handle("GET", f"/api/runs/{rid}/decisions")
        assert status == 200
        doc = json.loads(body)
        assert doc["run_id"] == rid
        ledger = doc["decisions"]
        assert ledger["version"] == 1
        assert ledger["seen"] >= 1
        for d in ledger["decisions"]:
            assert {"cycle", "demand", "idle", "predicted_ipc"} <= set(d)
        assert "immutable" in headers["Cache-Control"]

    def test_etag_revalidation(self, warm):
        app, store, _ = warm
        rid = _run_id(store, "sim/steering-telemetry")
        _, headers, _ = app.handle("GET", f"/api/runs/{rid}/decisions")
        status, _, body = app.handle(
            "GET", f"/api/runs/{rid}/decisions",
            headers={"If-None-Match": headers["ETag"]},
        )
        assert status == 304 and body == b""

    def test_404_for_run_without_ledger(self, warm):
        app, store, _ = warm
        rid = _run_id(store, "sim/steering")
        status, _, body = app.handle("GET", f"/api/runs/{rid}/decisions")
        assert status == 404
        assert b"decision ledger" in body

    def test_404_for_unknown_run(self, warm):
        app, _, _ = warm
        status, _, _ = app.handle("GET", "/api/runs/deadbeefdeadbeef/decisions")
        assert status == 404


class TestLogsEndpoint:
    def test_ring_backed_tail_with_filters(self):
        from repro.telemetry import EventLog

        store = RunStore()
        events = EventLog("serve")
        app = ServingApp(store, events=events)
        events.emit("job_submitted", trace="cafe0123cafe0123", job_id="j1")
        events.emit("job_done", trace="cafe0123cafe0123", job_id="j1")
        events.emit("job_submitted", trace="beef4567beef4567", job_id="j2")
        status, headers, body = app.handle("GET", "/api/logs")
        doc = json.loads(body)
        assert status == 200 and doc["count"] == 3
        assert "no-cache" in headers["Cache-Control"]
        doc = json.loads(
            app.handle("GET", "/api/logs", {"trace": "cafe0123cafe0123"})[2]
        )
        assert [e["event"] for e in doc["events"]] == [
            "job_submitted", "job_done",
        ]
        doc = json.loads(
            app.handle("GET", "/api/logs", {"event": "job_submitted",
                                            "limit": "1"})[2]
        )
        assert doc["count"] == 1 and doc["events"][0]["job_id"] == "j2"
        store.close()

    def test_file_sink_merges_other_processes_records(self, tmp_path):
        """An API worker's /api/logs must show sim-pool events too — the
        shared JSONL sink, not the local ring, is the source of truth."""
        from repro.telemetry import EventLog

        sink = tmp_path / "events.jsonl"
        mine = EventLog("api-0", path=sink)
        other = EventLog("sim-0", path=sink)
        other.emit("job_claimed", job_id="j1")
        mine.emit("http_request", path="/api/jobs")
        store = RunStore()
        app = ServingApp(store, events=mine)
        doc = json.loads(app.handle("GET", "/api/logs")[2])
        assert [e["proc"] for e in doc["events"]] == ["sim-0", "api-0"]
        store.close()
        mine.close(), other.close()

    def test_no_event_log_yields_empty_not_error(self):
        store = RunStore()
        app = ServingApp(store)
        status, _, body = app.handle("GET", "/api/logs")
        store.close()
        assert status == 200
        assert json.loads(body) == {"events": [], "count": 0}

    def test_bad_limit_is_rejected(self):
        from repro.telemetry import EventLog

        store = RunStore()
        app = ServingApp(store, events=EventLog())
        status, _, _ = app.handle("GET", "/api/logs", {"limit": "lots"})
        store.close()
        assert status == 400


class TestTraceContextSubmission:
    def _app(self):
        from repro.telemetry import EventLog

        store = RunStore()
        cache = ResultCache(store=store)
        events = EventLog("serve")
        jobs = StoreJobQueue(
            store, cache=cache, registry=MetricsRegistry(), events=events
        )
        return ServingApp(store, cache=cache, jobs=jobs, events=events), store

    def test_header_id_is_honoured_and_stamped_everywhere(self):
        app, store = self._app()
        spec = json.dumps({"target": "checksum", "max_cycles": 5_000}).encode()
        status, _, body = app.handle(
            "POST", "/api/jobs", body=spec,
            headers={"X-Repro-Trace-Id": "CAFE0123cafe0123"},
        )
        assert status in (200, 202)
        job_id = json.loads(body)["job_id"]
        # normalised id persisted on the durable job row
        assert store.get_job(job_id)["trace_id"] == "cafe0123cafe0123"
        # ... and stamped into the submission event
        doc = json.loads(
            app.handle("GET", "/api/logs", {"trace": "cafe0123cafe0123"})[2]
        )
        assert any(e["event"] == "job_submitted" for e in doc["events"])
        store.close()

    def test_garbage_header_gets_a_minted_id(self):
        from repro.telemetry import is_trace_id

        app, store = self._app()
        spec = json.dumps({"target": "checksum", "max_cycles": 5_000}).encode()
        _, _, body = app.handle(
            "POST", "/api/jobs", body=spec,
            headers={"X-Repro-Trace-Id": "not hex at all"},
        )
        job_id = json.loads(body)["job_id"]
        assert is_trace_id(store.get_job(job_id)["trace_id"])
        store.close()


class TestAccessLog:
    def test_callback_receives_structured_records(self):
        store = RunStore()
        records = []
        app = ServingApp(store, access_log=records.append)
        app.handle("GET", "/api/health")
        app.handle("GET", "/nope")
        store.close()
        assert [r["path"] for r in records] == ["/api/health", "/nope"]
        assert [r["status"] for r in records] == [200, 404]
        assert all(r["method"] == "GET" for r in records)
        assert all(r["latency_ms"] >= 0 for r in records)

    def test_no_callback_no_crash(self):
        store = RunStore()
        app = ServingApp(store)
        status, _, _ = app.handle("GET", "/api/health")
        store.close()
        assert status == 200


class TestMetricsWithoutRegistry:
    def test_metrics_endpoint_still_answers(self):
        """A ServingApp built without a shared registry creates its own."""
        store = RunStore()
        app = ServingApp(store)
        status, headers, body = app.handle("GET", "/metrics")
        store.close()
        assert status == 200
        assert b"repro_store_runs" in body
