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

from repro.evaluation.batch import run_many
from repro.serving.app import make_server
from repro.serving.jobs import HEARTBEAT_SECONDS, build_job
from repro.serving.supervisor import Supervisor, _bound_socket

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


def test_keep_alive_responses_do_not_wait_for_delayed_ack(make_app):
    app = make_app()
    run_many([build_job(SPEC)], cache=app.cache)
    server = make_server(app, "127.0.0.1", _bound_socket("127.0.0.1", 0))
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


def _drain_thread(queue) -> threading.Thread:
    """The sim worker's drain loop on a thread of this process."""
    thread = threading.Thread(target=queue.drain_until_stopped, daemon=True)
    thread.start()
    return thread


def test_doorbell_wakes_idle_drain_thread(make_queue):
    api, sim = make_queue("api-0"), make_queue("sim-0")
    thread = _drain_thread(sim)
    try:
        time.sleep(0.2)  # the drain thread is now parked on the doorbell
        record = api.submit(SPEC)
        deadline = time.monotonic() + 60
        while api.get(record.job_id).state not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        settled = api.get(record.job_id)
        assert settled.state == "done"
        assert settled.started - settled.submitted < WOKEN_WITHIN_S
    finally:
        sim.stop()
        thread.join(5)


def test_stop_wakes_idle_drain_thread_at_once(make_queue):
    queue = make_queue("sim-0")
    thread = _drain_thread(queue)
    time.sleep(0.2)
    start = time.monotonic()
    queue.stop()
    thread.join(5)
    assert not thread.is_alive()
    assert time.monotonic() - start < 1.0


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
