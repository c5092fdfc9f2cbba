"""Smoke test: the threaded HTTP server under concurrent clients."""

import json
import threading
import urllib.request

from repro.serving.app import make_server
from repro.serving.supervisor import _bound_socket

CLIENTS = 32
REQUESTS_PER_CLIENT = 4


def test_threaded_server_under_concurrent_clients(make_app):
    app = make_app()
    run_ids = [
        app.store.record_run(f"E-{i % 4}", format(i, "064x"), {"ipc": 1.0 + i})
        for i in range(8)
    ]
    # an API worker's server, on a listening socket as the supervisor binds it
    server = make_server(app, "127.0.0.1", _bound_socket("127.0.0.1", 0))
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    paths = [
        "/api/health",
        "/api/runs",
        "/api/experiments",
        f"/api/runs/{run_ids[0]}",
        f"/api/diff?a={run_ids[0]}&b={run_ids[1]}",
    ]
    errors = []

    def client(worker: int) -> None:
        try:
            for i in range(REQUESTS_PER_CLIENT):
                path = paths[(worker + i) % len(paths)]
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=10
                ) as response:
                    assert response.status == 200
                    payload = json.loads(response.read())
                    assert payload  # well-formed, non-empty JSON
        except Exception as exc:  # collected, not raised across threads
            errors.append(f"client {worker}: {exc!r}")

    threads = [
        threading.Thread(target=client, args=(w,)) for w in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    server.shutdown()
    server.server_close()
    assert not errors, errors
