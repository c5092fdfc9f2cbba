"""Tests for the pre-fork supervisor (multi-process serving)."""

import http.client
import json
import os
import pathlib
import queue
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.serving.supervisor import Supervisor, _bound_socket
from repro.telemetry import events_path_for, read_events


def _request(port, method, path, body=None, timeout=10):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _wait_healthy(port, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            status, _ = _request(port, "GET", "/api/health", timeout=2)
            if status == 200:
                return
        except OSError:
            pass
        time.sleep(0.1)
    raise AssertionError(f"no healthy worker on :{port} within {timeout}s")


@pytest.fixture()
def supervisor(tmp_path):
    """A running 2-API + 1-sim supervisor on an ephemeral port."""
    sup = Supervisor(
        str(tmp_path / "runs.sqlite"), cache_dir=str(tmp_path / "cache"),
        host="127.0.0.1", port=0, workers=2, sim_pool=1,
        respawn_base=0.1,
    )
    sup.start()
    runner = threading.Thread(target=sup.run, daemon=True)
    runner.start()
    _wait_healthy(sup.port)
    try:
        yield sup
    finally:
        sup._stopping.set()
        runner.join(30)
        assert not runner.is_alive(), "supervisor failed to stop"


def test_resolves_ephemeral_port(supervisor):
    assert supervisor.port != 0


def test_submit_runs_on_the_sim_pool(supervisor):
    spec = json.dumps({"target": "checksum", "max_cycles": 5_000}).encode()
    status, body = _request(supervisor.port, "POST", "/api/jobs", body=spec)
    assert status == 202
    record = json.loads(body)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        _, body = _request(
            supervisor.port, "GET", f"/api/jobs/{record['job_id']}"
        )
        job = json.loads(body)
        if job["state"] in ("done", "failed"):
            break
        time.sleep(0.1)
    assert job["state"] == "done", job.get("error")
    assert job["run_id"]
    # the job executed in a dedicated pool worker, not an API worker
    status, body = _request(supervisor.port, "GET", "/metrics")
    assert 'repro_job_run_seconds_count{worker="sim-0"} 1' in body.decode()


def test_metrics_are_merged_across_workers(supervisor):
    # each worker publishes its first snapshot during startup; wait for
    # all of them to have registered before asserting the merge
    deadline = time.monotonic() + 20
    workers: set[str] = set()
    while time.monotonic() < deadline:
        status, body = _request(supervisor.port, "GET", "/metrics")
        assert status == 200
        text = body.decode()
        workers = {part.split('"')[0] for part in text.split('worker="')[1:]}
        if {"api-0", "api-1", "sim-0"} <= workers:
            break
        time.sleep(0.2)
    assert {"api-0", "api-1", "sim-0"} <= workers
    # exposition stays well-formed: one TYPE line per family
    type_lines = [l for l in text.splitlines() if l.startswith("# TYPE ")]
    assert len(type_lines) == len({l.split()[2] for l in type_lines})


def test_crashed_worker_is_respawned(supervisor):
    victim = supervisor._children["api-0"]
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        current = supervisor._children.get("api-0")
        if current is not None and current.pid != victim.pid and current.is_alive():
            break
        time.sleep(0.1)
    else:
        raise AssertionError("api-0 was not respawned")
    assert supervisor._crashes["api-0"] == 1
    _wait_healthy(supervisor.port)


def test_graceful_stop_reaps_all_children(tmp_path):
    sup = Supervisor(
        str(tmp_path / "runs.sqlite"), host="127.0.0.1", port=0,
        workers=1, sim_pool=1,
    )
    sup.start()
    pids = [p.pid for p in sup._children.values()]
    assert len(pids) == 2
    sup.stop()
    assert sup._children == {}
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)  # ESRCH: the process is gone


def test_listening_socket_survives_a_lost_accept_race():
    """Every API worker's select wakes for a connection, and one accept
    wins.  A loser's accept must fail with BlockingIOError (socketserver
    drops it) rather than block where no shutdown request reaches it;
    the connection the winner accepts is an ordinary blocking socket."""
    sock = _bound_socket("127.0.0.1", 0)
    try:
        assert not sock.getblocking()
        with pytest.raises(BlockingIOError):
            sock.accept()  # the connection went to another worker
        with socket.create_connection(sock.getsockname(), timeout=5):
            select.select([sock], [], [], 5)
            conn, _ = sock.accept()
            with conn:
                assert conn.getblocking()
    finally:
        sock.close()


def test_graceful_stop_with_two_api_workers_after_requests(tmp_path):
    """A request wakes every API worker's select; the ones that lose the
    accept race must still see the stop request promptly."""
    store = tmp_path / "runs.sqlite"
    notes: list[str] = []
    sup = Supervisor(
        str(store), host="127.0.0.1", port=0, workers=2, sim_pool=1,
        log=notes.append,
    )
    sup.start()
    runner = threading.Thread(target=sup.run, daemon=True)
    runner.start()
    try:
        _wait_healthy(sup.port)
        for _ in range(8):
            time.sleep(0.05)  # both workers back in select: each request races
            status, _ = _request(sup.port, "GET", "/metrics")
            assert status == 200
    finally:
        start = time.monotonic()
        sup._stopping.set()
        runner.join(30)
        elapsed = time.monotonic() - start
    assert not runner.is_alive()
    assert elapsed < 2.0, f"stop took {elapsed:.1f}s: {notes}"
    assert not [n for n in notes if "ignored SIGTERM" in n]
    stopped = {
        e["worker"]
        for e in read_events(events_path_for(store), event="worker_stopped")
    }
    assert stopped == {"api-0", "api-1", "sim-0"}


def test_request_during_respawn_waits_for_the_new_worker(tmp_path):
    # one API worker: while it is dead, nothing but the parent's listening
    # socket can take the connection, and it must queue, not be refused
    sup = Supervisor(
        str(tmp_path / "runs.sqlite"), host="127.0.0.1", port=0,
        workers=1, sim_pool=1, respawn_base=0.1,
    )
    sup.start()
    runner = threading.Thread(target=sup.run, daemon=True)
    runner.start()
    try:
        _wait_healthy(sup.port)
        port = sup.port
        os.kill(sup._children["api-0"].pid, signal.SIGKILL)
        status, _ = _request(port, "GET", "/api/health", timeout=30)
        assert status == 200
        assert sup.port == port
        assert sup._crashes["api-0"] == 1
    finally:
        sup._stopping.set()
        runner.join(30)
    assert not runner.is_alive()


def test_rejects_zero_workers(tmp_path):
    for kwargs in ({"workers": 0}, {"sim_pool": 0}, {"sim_pool": -1}):
        with pytest.raises(ValueError, match="at least one"):
            Supervisor(str(tmp_path / "r.sqlite"), **kwargs)


@pytest.mark.parametrize("store", [":memory:", ""])
def test_rejects_a_store_the_workers_cannot_share(store, capsys):
    """Each forked worker would open a private database of its own, so a
    job one API worker accepts would never reach a sim worker."""
    with pytest.raises(ValueError, match="private to one process"):
        Supervisor(store, port=0)
    from repro.cli import main

    # `repro serve` turns the refusal into a usage error
    assert main(["serve", "--store", store, "--port", "0"]) == 2
    assert "private to one process" in capsys.readouterr().err


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_cli_serve_stops_cleanly_on_sigterm(tmp_path):
    store = tmp_path / "runs.sqlite"
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(store), "--cache-dir", str(tmp_path / "cache")],
        stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
    )
    ports: queue.Queue = queue.Queue()

    def scan_stderr() -> None:
        for line in proc.stderr:
            match = re.search(r"\[serve\] supervisor: .* http://.*:(\d+)/", line)
            if match:
                ports.put(int(match.group(1)))

    threading.Thread(target=scan_stderr, daemon=True).start()
    try:
        try:
            port = ports.get(timeout=30)
        except queue.Empty:
            raise AssertionError("no supervisor line on stderr") from None
        _wait_healthy(port)  # /api/health answers 200
        # every worker logs its pid once it is up
        deadline = time.monotonic() + 20
        pids: dict[str, int] = {}
        while time.monotonic() < deadline and set(pids) != {"api-0", "sim-0"}:
            pids = {
                e["worker"]: e["pid"] for e in read_events(
                    events_path_for(store), event="worker_started"
                )
            }
            time.sleep(0.1)
        assert set(pids) == {"api-0", "sim-0"}
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0
        assert not [pid for pid in pids.values() if _pid_alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
