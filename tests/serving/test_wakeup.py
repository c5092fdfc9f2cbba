"""The serving path waits on no fixed timer.

A keep-alive response must not stall on Nagle + the client's delayed ACK
(~40 ms), and a submitted job must be claimed when the doorbell rings,
not when an idle drain loop's fallback wait (``HEARTBEAT_SECONDS``)
runs out.  Stopping an idle drain loop rings it too.
"""

import http.client
import json
import os
import signal
import statistics
import threading
import time

import pytest

from repro.evaluation.batch import ResultCache, run_many
from repro.serving.app import ServingApp, make_server
from repro.serving.jobs import HEARTBEAT_SECONDS, StoreJobQueue, build_job
from repro.serving.store import RunStore
from repro.serving.supervisor import Supervisor

SPEC = {"target": "checksum", "max_cycles": 5_000}

#: a claim this fast came from the doorbell, not the fallback wait.
WOKEN_WITHIN_S = 0.5

assert HEARTBEAT_SECONDS > 3 * WOKEN_WITHIN_S


def _timed(conn, method, path, body=None):
    start = time.perf_counter()
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    return time.perf_counter() - start, response.status, payload


def test_keep_alive_responses_do_not_wait_for_delayed_ack():
    store = RunStore()
    cache = ResultCache()
    run_many([build_job(SPEC)], cache=cache)
    jobs = StoreJobQueue(store, cache=cache)
    app = ServingApp(store, cache=cache, jobs=jobs)
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=10
    )
    try:
        health, submit = [], []
        body = json.dumps(SPEC).encode()
        for _ in range(20):
            elapsed, status, _ = _timed(conn, "GET", "/api/health")
            assert status == 200
            health.append(elapsed)
            elapsed, status, payload = _timed(conn, "POST", "/api/jobs", body)
            assert status == 200 and json.loads(payload)["cached"] is True
            submit.append(elapsed)
        # the stall is >= 40 ms per response; real work here is ~1-3 ms
        assert statistics.median(health) < 0.015, health
        assert statistics.median(submit) < 0.015, submit
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(5)
        store.close()


def test_doorbell_wakes_idle_drain_thread():
    store = RunStore()
    queue = StoreJobQueue(store, cache=ResultCache())
    queue.start()
    try:
        time.sleep(0.2)  # the drain thread is now parked on the doorbell
        record = queue.submit(SPEC)
        settled = queue.wait(record.job_id, timeout=60)
        assert settled.state == "done"
        assert settled.started - settled.submitted < WOKEN_WITHIN_S
    finally:
        queue.stop()
        store.close()


def test_stop_wakes_idle_drain_thread_at_once():
    store = RunStore()
    queue = StoreJobQueue(store, cache=ResultCache())
    queue.start()
    try:
        time.sleep(0.2)
        start = time.monotonic()
        queue.stop()
        assert time.monotonic() - start < 1.0
        assert not queue._thread.is_alive()
    finally:
        store.close()


@pytest.fixture()
def idle_supervisor(tmp_path):
    """A started 1-API + 1-sim supervisor (no respawn loop)."""
    sup = Supervisor(
        str(tmp_path / "runs.sqlite"), cache_dir=str(tmp_path / "cache"),
        host="127.0.0.1", port=0, workers=1, sim_pool=1,
    )
    sup.start()
    try:
        deadline = time.monotonic() + 20
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", sup.port, timeout=2)
            try:
                if _timed(conn, "GET", "/api/health")[1] == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            assert time.monotonic() < deadline, "no healthy API worker"
            time.sleep(0.05)
        yield sup
    finally:
        sup.stop()


def test_doorbell_wakes_sim_worker_across_processes(idle_supervisor):
    time.sleep(0.3)  # the sim worker is parked on the shared doorbell
    conn = http.client.HTTPConnection(
        "127.0.0.1", idle_supervisor.port, timeout=10
    )
    try:
        _, status, payload = _timed(
            conn, "POST", "/api/jobs", json.dumps(SPEC).encode()
        )
        assert status == 202
        job = json.loads(payload)
        deadline = time.monotonic() + 60
        while job["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, job
            time.sleep(0.01)
            path = f"/api/jobs/{job['job_id']}"
            job = json.loads(_timed(conn, "GET", path)[2])
    finally:
        conn.close()
    assert job["state"] == "done", job.get("error")
    assert job["started"] - job["submitted"] < WOKEN_WITHIN_S


def test_sigterm_stops_idle_sim_worker_at_once(idle_supervisor):
    time.sleep(0.3)
    proc = idle_supervisor._children["sim-0"]
    start = time.monotonic()
    os.kill(proc.pid, signal.SIGTERM)
    proc.join(5)
    assert not proc.is_alive()
    assert time.monotonic() - start < 1.0
    assert proc.exitcode == 0
