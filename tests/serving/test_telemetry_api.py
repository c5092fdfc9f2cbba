"""Serving-layer observability: /metrics, /timeseries, access logs.

All exercised through the handler (``ServingApp.handle``) of an app
built as an API worker builds it — no sockets, matching the rest of the
API suite.
"""

import json
import re

import pytest

from repro.core.params import ProcessorParams
from repro.evaluation.batch import ResultCache, SimJob, run_many
from repro.telemetry import read_events
from repro.workloads.kernels import checksum

_PARAMS = ProcessorParams(reconfig_latency=8)

_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? '
    r'(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$'
)


@pytest.fixture()
def warm(make_app, tmp_path):
    """An API worker's app over a store + cache directory seeded with one
    plain and one telemetry-bearing run."""
    app = make_app(cache_dir=str(tmp_path / "cache"))
    cache = ResultCache(tmp_path / "cache", store=app.store)
    program = checksum(iterations=20).program
    jobs = [
        SimJob("steering", program, _PARAMS, max_cycles=50_000,
               label="plain"),
        SimJob("steering-telemetry", program, _PARAMS, max_cycles=50_000,
               label="instrumented"),
    ]
    run_many(jobs, cache=cache)
    return app, app.store, app.cache


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
        assert 'repro_store_runs{worker="api-0"} 2' in text

    def test_request_counter_labels_use_route_templates(self, warm):
        app, store, _ = warm
        rid = _run_id(store, "sim/steering")
        app.handle("GET", f"/api/runs/{rid}")
        app.handle("GET", f"/api/runs/{rid}")
        app.handle("GET", "/definitely/not/a/route")
        text = app.handle("GET", "/metrics")[2].decode()
        assert (
            'repro_http_requests_total{method="GET",'
            'route="/api/runs/{id}",status="200",worker="api-0"} 2' in text
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
    def test_sink_backed_tail_with_filters(self, make_app):
        app = make_app()
        events = app.events
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

    def test_file_sink_merges_other_processes_records(self, make_app, make_queue):
        """An API worker's /api/logs must show sim-pool events too — the
        shared JSONL sink is the source of truth."""
        app = make_app("api-0")
        make_queue("sim-0").events.emit("job_claimed", job_id="j1")
        app.events.emit("http_request", path="/api/jobs")
        doc = json.loads(app.handle("GET", "/api/logs")[2])
        assert [e["proc"] for e in doc["events"]] == ["sim-0", "api-0"]

    def test_no_event_log_yields_empty_not_error(self, make_app):
        """A sink no worker has written to yet reads as an empty log."""
        app = make_app()
        status, _, body = app.handle("GET", "/api/logs")
        assert status == 200
        assert json.loads(body) == {"events": [], "count": 0}

    def test_bad_limit_is_rejected(self, make_app):
        app = make_app()
        status, _, _ = app.handle("GET", "/api/logs", {"limit": "lots"})
        assert status == 400


class TestTraceContextSubmission:
    def test_header_id_is_honoured_and_stamped_everywhere(self, make_app):
        app = make_app()
        spec = json.dumps({"target": "checksum", "max_cycles": 5_000}).encode()
        status, _, body = app.handle(
            "POST", "/api/jobs", body=spec,
            headers={"X-Repro-Trace-Id": "CAFE0123cafe0123"},
        )
        assert status in (200, 202)
        job_id = json.loads(body)["job_id"]
        # normalised id persisted on the durable job row
        assert app.store.get_job(job_id)["trace_id"] == "cafe0123cafe0123"
        # ... and stamped into the submission event
        doc = json.loads(
            app.handle("GET", "/api/logs", {"trace": "cafe0123cafe0123"})[2]
        )
        assert any(e["event"] == "job_submitted" for e in doc["events"])

    def test_garbage_header_gets_a_minted_id(self, make_app):
        from repro.telemetry import is_trace_id

        app = make_app()
        spec = json.dumps({"target": "checksum", "max_cycles": 5_000}).encode()
        _, _, body = app.handle(
            "POST", "/api/jobs", body=spec,
            headers={"X-Repro-Trace-Id": "not hex at all"},
        )
        job_id = json.loads(body)["job_id"]
        assert is_trace_id(app.store.get_job(job_id)["trace_id"])


class TestAccessLog:
    def test_callback_receives_structured_records(self, make_app):
        """Every handled request writes one ``http_request`` record to the
        event log (echoed to stderr under ``repro serve --verbose``)."""
        app = make_app("api-0")
        app.handle("GET", "/api/health")
        app.handle("GET", "/nope")
        records = read_events(app.events.path, event="http_request")
        assert [r["path"] for r in records] == ["/api/health", "/nope"]
        assert [r["status"] for r in records] == [200, 404]
        assert all(r["method"] == "GET" for r in records)
        assert all(r["worker"] == r["proc"] == "api-0" for r in records)
        assert all(r["latency_ms"] >= 0 for r in records)
