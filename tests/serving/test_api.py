"""Tests for the HTTP JSON API (exercised through the pure handler)."""

import json
import time

import pytest

import repro.evaluation.batch as batch
from repro.core.params import ProcessorParams
from repro.evaluation.batch import ResultCache, SimJob, run_many
from repro.serving.app import ServingApp
from repro.serving.jobs import StoreJobQueue, build_job
from repro.serving.store import RunStore
from repro.workloads.kernels import checksum

_PARAMS = ProcessorParams(reconfig_latency=8)


def _decode(response):
    status, headers, body = response
    return status, headers, json.loads(body)


@pytest.fixture()
def warm():
    """A store + cache seeded by actually running two small simulations."""
    store = RunStore()
    cache = ResultCache(store=store)
    jobs = [
        SimJob("steering", checksum(iterations=20).program, _PARAMS,
               max_cycles=50_000, label="checksum/steering"),
        SimJob("ffu-only", checksum(iterations=20).program, _PARAMS,
               max_cycles=50_000, label="checksum/ffu"),
    ]
    run_many(jobs, cache=cache)
    app = ServingApp(store, cache=cache)
    yield app, store, cache
    store.close()


def test_health(warm):
    app, store, _ = warm
    status, headers, payload = _decode(app.handle("GET", "/api/health"))
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["runs"] == store.count() == 2
    assert payload["cache"]["memory_entries"] == 2


def test_dashboard_served_at_root(warm):
    app, _, _ = warm
    status, headers, body = app.handle("GET", "/")
    assert status == 200
    assert headers["Content-Type"].startswith("text/html")
    assert b"<!doctype html>" in body.lower()
    assert b"/api/runs" in body  # the page drives the JSON API


def test_list_runs_and_experiment_filter(warm):
    app, _, _ = warm
    status, _, payload = _decode(app.handle("GET", "/api/runs"))
    assert status == 200
    assert payload["count"] == 2
    status, _, payload = _decode(
        app.handle("GET", "/api/runs", {"experiment": "sim/steering"})
    )
    assert [r["experiment"] for r in payload["runs"]] == ["sim/steering"]
    status, _, payload = _decode(
        app.handle("GET", "/api/runs", {"limit": "not-a-number"})
    )
    assert status == 400


def test_get_run_with_etag_revalidation(warm):
    app, store, _ = warm
    run_id = store.list_runs()[0]["run_id"]
    status, headers, payload = _decode(app.handle("GET", f"/api/runs/{run_id}"))
    assert status == 200
    assert payload["artifact"] is True
    assert payload["metrics"]["ipc"] > 0
    etag = headers["ETag"]
    assert "max-age" in headers["Cache-Control"]
    status, headers, body = app.handle(
        "GET", f"/api/runs/{run_id}", headers={"If-None-Match": etag}
    )
    assert status == 304
    assert body == b""
    assert headers["ETag"] == etag
    # a different tag still gets the full body
    status, _, _ = app.handle(
        "GET", f"/api/runs/{run_id}", headers={"If-None-Match": '"stale"'}
    )
    assert status == 200


def test_get_run_text_format(warm):
    app, store, _ = warm
    run_id = store.list_runs()[0]["run_id"]
    status, headers, body = app.handle(
        "GET", f"/api/runs/{run_id}", {"format": "text"}
    )
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert run_id.encode() in body
    assert b"ipc" in body


def test_missing_run_404(warm):
    app, _, _ = warm
    status, _, payload = _decode(app.handle("GET", "/api/runs/" + "0" * 16))
    assert status == 404
    status, _, _ = _decode(app.handle("GET", "/api/nosuch"))
    assert status == 404


def test_diff_endpoint(warm):
    app, store, _ = warm
    a, b = [r["run_id"] for r in store.list_runs()[:2]]
    status, headers, payload = _decode(
        app.handle("GET", "/api/diff", {"a": a, "b": b})
    )
    assert status == 200
    assert "ipc" in payload["metrics"]
    etag = headers["ETag"]
    status, _, _ = app.handle(
        "GET", "/api/diff", {"a": a, "b": b}, {"If-None-Match": etag}
    )
    assert status == 304
    status, _, _ = _decode(app.handle("GET", "/api/diff", {"a": a}))
    assert status == 400
    status, _, payload = _decode(
        app.handle("GET", "/api/diff", {"a": a, "b": "0" * 16})
    )
    assert status == 404


def test_artifact_endpoint_immutable(warm):
    app, store, _ = warm
    run_id = store.list_runs()[0]["run_id"]
    status, headers, payload = _decode(
        app.handle("GET", f"/api/runs/{run_id}/artifact")
    )
    assert status == 200
    assert "immutable" in headers["Cache-Control"]
    assert payload["artifact"]["ipc"] > 0
    status, _, _ = app.handle(
        "GET", f"/api/runs/{run_id}/artifact",
        headers={"If-None-Match": headers["ETag"]},
    )
    assert status == 304


@pytest.mark.parametrize(
    "name,etag,missing",
    [
        ("artifact", '"{key}"', None),
        ("timeseries", '"{key:.24}.ts"',
         "no telemetry time series (only telemetry-enabled runs carry one)"),
        ("decisions", '"{key:.24}.dec"',
         "no decision ledger (only ledger-enabled runs carry one)"),
    ],
)
def test_blob_endpoints_etag_and_404_text(warm, name, etag, missing):
    """Every cached-blob endpoint keeps its ETag, Cache-Control and 404
    text; a plain steering run has no series and no ledger."""
    app, store, _ = warm
    run = store.list_runs()[0]
    key = run["config_hash"]
    path = f"/api/runs/{run['run_id']}/{name}"
    status, headers, _ = app.handle(
        "GET", path, headers={"If-None-Match": etag.format(key=key)}
    )
    assert status == 304
    assert headers == {
        "ETag": etag.format(key=key),
        "Cache-Control": "public, max-age=31536000, immutable",
    }
    if missing is None:
        return  # the artifact is there; see the pruned-namespace test
    status, _, payload = _decode(app.handle("GET", path))
    assert status == 404
    assert payload == {
        "error": f"run {run['run_id']} has " + missing.format(key=key),
        "status": 404,
    }


def test_artifact_of_a_pruned_namespace_is_404(tmp_path, monkeypatch):
    """A run recorded under other code keeps its row, but its blob goes
    when that code digest's namespace is pruned, an idle hour later: the
    artifact is a 404, never a result of other code."""
    store = RunStore()
    job = SimJob("steering", checksum(iterations=20).program, _PARAMS,
                 max_cycles=50_000)
    run_many([job], cache=ResultCache(tmp_path, store=store))
    run_id, key = (store.list_runs()[0][k] for k in ("run_id", "config_hash"))
    app = ServingApp(store, cache=ResultCache(tmp_path))
    assert app.handle("GET", f"/api/runs/{run_id}/artifact")[0] == 200
    monkeypatch.setattr(batch, "code_digest", lambda: "e" * 64)
    cache = ResultCache(tmp_path)
    assert cache.prune(now=time.time() + batch.IDLE_S + 1)["removed"] == 1
    app = ServingApp(store, cache=cache)
    status, _, payload = _decode(app.handle("GET", f"/api/runs/{run_id}/artifact"))
    assert status == 404
    assert payload == {
        "error": f"run {run_id} has no cached artifact (key {key[:12]}…)",
        "status": 404,
    }
    store.close()


def test_warm_cache_answers_without_simulating(warm, monkeypatch):
    """The acceptance check: list/get/diff never touch the simulator."""
    app, store, _ = warm

    def explode(*a, **kw):
        raise AssertionError("simulated on a read-only request")

    monkeypatch.setattr(batch, "execute_job", explode)

    runs = _decode(app.handle("GET", "/api/runs"))[2]["runs"]
    a, b = runs[0]["run_id"], runs[1]["run_id"]
    assert _decode(app.handle("GET", f"/api/runs/{a}"))[0] == 200
    assert _decode(app.handle("GET", f"/api/runs/{a}/artifact"))[0] == 200
    assert _decode(app.handle("GET", "/api/diff", {"a": a, "b": b}))[0] == 200
    assert _decode(app.handle("GET", "/api/health"))[0] == 200


# ------------------------------------------------------------ job submission
def test_submit_without_queue_is_503():
    store = RunStore()
    app = ServingApp(store)
    status, _, _ = _decode(app.handle("POST", "/api/jobs", body=b"{}"))
    assert status == 503
    store.close()


def test_submit_bad_json_and_bad_spec():
    store = RunStore()
    app = ServingApp(store, jobs=StoreJobQueue(store, capacity=2))
    status, _, payload = _decode(
        app.handle("POST", "/api/jobs", body=b"{not json")
    )
    assert status == 400
    status, _, payload = _decode(
        app.handle("POST", "/api/jobs", body=b'{"target": "nosuch-kernel"}')
    )
    assert status == 400
    assert "nosuch-kernel" in payload["error"]
    store.close()


def test_submit_cached_job_returns_200_immediately():
    store = RunStore()
    cache = ResultCache()
    spec = {"factory": "steering", "target": "checksum",
            "params": {"reconfig_latency": 8}, "max_cycles": 50_000}
    run_many([build_job(spec)], cache=cache)
    queue = StoreJobQueue(store, cache=cache)
    app = ServingApp(store, cache=cache, jobs=queue)
    status, _, payload = _decode(
        app.handle("POST", "/api/jobs", body=json.dumps(spec).encode())
    )
    assert status == 200
    assert payload["cached"] is True
    assert payload["state"] == "done"
    # the run became visible through the run list
    runs = _decode(app.handle("GET", "/api/runs"))[2]["runs"]
    assert any(r["run_id"] == payload["run_id"] for r in runs)
    queue.stop()
    store.close()


def test_submit_fresh_job_runs_and_appears_in_run_list():
    store = RunStore()
    cache = ResultCache()
    queue = StoreJobQueue(store, cache=cache)
    queue.start()
    app = ServingApp(store, cache=cache, jobs=queue)
    spec = {"factory": "ffu-only", "target": "checksum",
            "max_cycles": 50_000, "label": "api submission"}
    status, _, payload = _decode(
        app.handle("POST", "/api/jobs", body=json.dumps(spec).encode())
    )
    assert status == 202
    settled = queue.wait(payload["job_id"], timeout=60)
    assert settled.state == "done"
    status, _, job = _decode(app.handle("GET", f"/api/jobs/{payload['job_id']}"))
    assert job["state"] == "done"
    assert job["run_id"] is not None
    runs = _decode(
        app.handle("GET", "/api/runs", {"experiment": "job/ffu-only"})
    )[2]["runs"]
    assert [r["run_id"] for r in runs] == [job["run_id"]]
    assert runs[0]["label"] == "api submission"
    # resubmission of the same spec is now a cache hit
    status, _, payload = _decode(
        app.handle("POST", "/api/jobs", body=json.dumps(spec).encode())
    )
    assert status == 200 and payload["cached"] is True
    queue.stop()
    store.close()


def test_jobs_listing(warm):
    app, store, cache = warm
    queue = StoreJobQueue(store, cache=cache)
    app.jobs = queue
    status, _, payload = _decode(app.handle("GET", "/api/jobs"))
    assert status == 200 and payload["jobs"] == []
    status, _, _ = _decode(app.handle("GET", "/api/jobs/job-9999"))
    assert status == 404
    queue.stop()


# -------------------------------------------------------------- backpressure
def _rejections(app):
    counter = app.registry.get("repro_jobs_rejected_total")
    return {
        labels[0]: child.value for labels, child in counter._children.items()
    }


def test_disabled_submission_503_carries_retry_after_and_counts():
    store = RunStore()
    app = ServingApp(store)
    status, headers, payload = app.handle("POST", "/api/jobs", body=b"{}")
    assert status == 503
    assert headers["Retry-After"] == "1"
    assert json.loads(payload)["status"] == 503
    assert _rejections(app) == {"disabled": 1.0}
    store.close()


def test_queue_full_503_carries_retry_after_and_counts():
    store = RunStore()
    # durable queue, never drained: submissions pile up to capacity
    queue = StoreJobQueue(store, cache=ResultCache(), capacity=1)
    app = ServingApp(store, cache=queue.cache, jobs=queue)
    spec = {"target": "checksum", "max_cycles": 50_000}
    status, _, _ = app.handle(
        "POST", "/api/jobs", body=json.dumps(spec).encode()
    )
    assert status == 202
    rejected = 0
    for extra in (60_000, 70_000):
        status, headers, _ = app.handle(
            "POST", "/api/jobs",
            body=json.dumps({**spec, "max_cycles": extra}).encode(),
        )
        assert status == 503
        # every queue-full rejection tells the client when to come back
        assert headers["Retry-After"] == "1"
        rejected += 1
    assert _rejections(app) == {"queue_full": float(rejected)}
    # the rejections surface on /metrics too
    _, _, body = app.handle("GET", "/metrics")
    assert 'repro_jobs_rejected_total{reason="queue_full"} 2' in body.decode()
    store.close()


# ---------------------------------------------------------- worker metrics
def test_worker_scrape_publishes_and_merges():
    store = RunStore()
    a = ServingApp(store, worker_name="api-0")
    b = ServingApp(store, worker_name="api-1")
    a.handle("GET", "/api/health")
    b.handle("GET", "/api/health")
    b.handle("GET", "/metrics")  # api-1 publishes its snapshot
    # either worker's scrape answers for the whole fleet
    status, _, body = a.handle("GET", "/metrics")
    assert status == 200
    text = body.decode()
    assert (
        'repro_http_requests_total{method="GET",route="/api/health",'
        'status="200",worker="api-0"} 1' in text
    )
    assert 'worker="api-1"' in text
    # and the snapshots are visible store-wide
    assert set(store.worker_metrics()) == {"api-0", "api-1"}
    store.close()
