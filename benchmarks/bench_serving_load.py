"""Closed-loop load benchmark for the serving layer (stdlib only).

Drives a running ``repro serve`` endpoint — or self-hosts its supervisor
with ``--workers`` API and ``--sim-pool`` sim workers — with concurrent
clients issuing a mixed read/submit scenario, and reports latency
percentiles, throughput and error rate:

- reads: ``GET /api/health``, ``GET /api/runs``, ``GET /api/experiments``
  and an occasional ``GET /metrics`` scrape (the expensive one — under
  the supervisor it merges every worker's published snapshot);
- submits: ``POST /api/jobs`` drawn from a small pool of distinct specs,
  so the first submission of each spec simulates and the rest are
  answered from the content-keyed result cache — the realistic steady
  state for a dashboard under traffic.

A 503 on submit is the queue's *designed* backpressure (bounded queue +
``Retry-After``), so it counts as ``rejected``, never as an error; the
error rate covers transport failures and 5xx responses the contract does
not promise.

The JSON artifact (``BENCH_serving_load.json``) is diffed over time by
``record_throughput.py --serving-baseline`` under the same >20% rule as
the simulator columns, and CI's ``serve-load`` job gates every run on
``--max-p99-ms`` / ``--max-error-rate`` directly.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_load.py \
        [--clients 16] [--duration 10] [--workers 2] [--sim-pool 1] \
        [--url http://host:port] [-o BENCH_serving_load.json] \
        [--store runs.sqlite] [--max-p99-ms 500] [--max-error-rate 0.01]
"""

from __future__ import annotations

import argparse
import http.client
import json
import pathlib
import platform
import random
import tempfile
import threading
import time
from urllib.parse import urlsplit

#: submit specs: small pool, tiny workloads -> first run simulates,
#: repeats hit the cache (content-keyed on the job spec).
_SUBMIT_SPECS = [
    {"target": "checksum", "max_cycles": 4_000 + i * 97} for i in range(4)
]

#: read endpoints with selection weights (metrics scrapes are rare).
_READS = (
    ("/api/health", 4),
    ("/api/runs?limit=20", 3),
    ("/api/experiments", 2),
    ("/metrics", 1),
)
_READ_PATHS = [path for path, weight in _READS for _ in range(weight)]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of pre-sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[rank]


class _Client(threading.Thread):
    """One closed-loop client: issue, wait, record, repeat."""

    def __init__(self, host, port, deadline, submit_ratio, seed):
        super().__init__(daemon=True, name=f"load-client-{seed}")
        self.host, self.port = host, port
        self.deadline = deadline
        self.submit_ratio = submit_ratio
        self.rng = random.Random(seed)
        self.latencies: list[float] = []
        self.ok = 0
        self.rejected = 0
        self.errors = 0
        self.by_kind = {"read": 0, "submit": 0}

    def _request(self, conn):
        if self.rng.random() < self.submit_ratio:
            kind = "submit"
            spec = self.rng.choice(_SUBMIT_SPECS)
            body = json.dumps(spec).encode()
            conn.request(
                "POST", "/api/jobs", body=body,
                headers={"Content-Type": "application/json"},
            )
        else:
            kind = "read"
            conn.request("GET", self.rng.choice(_READ_PATHS))
        response = conn.getresponse()
        response.read()  # drain for keep-alive
        return kind, response.status

    def run(self) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            while time.monotonic() < self.deadline:
                start = time.perf_counter()
                try:
                    kind, status = self._request(conn)
                except (OSError, http.client.HTTPException):
                    self.errors += 1
                    conn.close()  # reconnect on the next iteration
                    continue
                self.latencies.append(time.perf_counter() - start)
                self.by_kind[kind] += 1
                if status < 400:
                    self.ok += 1
                elif status == 503 and kind == "submit":
                    self.rejected += 1  # designed backpressure
                elif status < 500:
                    self.ok += 1  # 4xx we provoked is not a server fault
                else:
                    self.errors += 1
        finally:
            conn.close()


def run_load(
    url: str,
    clients: int = 8,
    duration: float = 5.0,
    submit_ratio: float = 0.2,
    seed: int = 0,
) -> dict:
    """Run the mixed scenario against ``url``; return the metrics record."""
    parts = urlsplit(url)
    deadline = time.monotonic() + duration
    threads = [
        _Client(parts.hostname, parts.port, deadline, submit_ratio, seed + i)
        for i in range(clients)
    ]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(duration + 30)
    elapsed = time.monotonic() - start

    latencies = sorted(lat for t in threads for lat in t.latencies)
    completed = len(latencies)
    errors = sum(t.errors for t in threads)
    rejected = sum(t.rejected for t in threads)
    total = completed + errors
    return {
        "clients": clients,
        "duration_seconds": round(elapsed, 2),
        "submit_ratio": submit_ratio,
        "requests": total,
        "reads": sum(t.by_kind["read"] for t in threads),
        "submits": sum(t.by_kind["submit"] for t in threads),
        "ok": sum(t.ok for t in threads),
        "rejected": rejected,
        "errors": errors,
        "error_rate": round(errors / total, 4) if total else 0.0,
        "requests_per_second": round(completed / elapsed, 1) if elapsed else 0.0,
        "p50_ms": round(percentile(latencies, 50) * 1000, 2),
        "p90_ms": round(percentile(latencies, 90) * 1000, 2),
        "p99_ms": round(percentile(latencies, 99) * 1000, 2),
        "max_ms": round(latencies[-1] * 1000, 2) if latencies else 0.0,
    }


def _hosted_load(
    workers: int,
    sim_pool: int,
    clients: int,
    duration: float,
    submit_ratio: float,
    queue_capacity: int,
) -> dict:
    """Self-host a supervisor in a temp dir, load it, tear it down."""
    import os

    with tempfile.TemporaryDirectory(prefix="repro-load-") as tmp:
        record = _load_supervised(
            os.path.join(tmp, "runs.sqlite"), os.path.join(tmp, "cache"),
            workers, sim_pool, clients, duration, submit_ratio,
            queue_capacity,
        )
    record["workers"] = workers
    record["sim_pool"] = sim_pool
    return record


def _wait_healthy(port: int, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
            conn.request("GET", "/api/health")
            if conn.getresponse().status == 200:
                conn.close()
                return
        except OSError as exc:
            last = exc
            time.sleep(0.1)
    raise RuntimeError(f"server on :{port} never became healthy: {last}")


def _load_supervised(
    store_path, cache_dir, workers, sim_pool, clients, duration,
    submit_ratio, queue_capacity,
) -> dict:
    from repro.serving.supervisor import Supervisor

    sup = Supervisor(
        store_path, cache_dir=cache_dir, host="127.0.0.1", port=0,
        workers=workers, sim_pool=sim_pool, queue_capacity=queue_capacity,
    )
    sup.start()
    runner = threading.Thread(target=sup.run, daemon=True)
    runner.start()
    try:
        _wait_healthy(sup.port)
        return run_load(
            f"http://127.0.0.1:{sup.port}", clients=clients,
            duration=duration, submit_ratio=submit_ratio,
        )
    finally:
        sup._stopping.set()
        runner.join(20)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_serving_load.json")
    parser.add_argument("--url", default=None,
                        help="load an already-running server instead of "
                             "self-hosting one")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent closed-loop clients")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds of sustained load")
    parser.add_argument("--submit-ratio", type=float, default=0.2,
                        help="fraction of requests that POST a job")
    parser.add_argument("--workers", type=int, default=2,
                        help="API worker processes for the self-hosted "
                             "server (>= 1)")
    parser.add_argument("--sim-pool", type=int, default=1,
                        help="simulation worker processes for the "
                             "self-hosted server (>= 1)")
    parser.add_argument("--queue-capacity", type=int, default=8)
    parser.add_argument("--store", default=None,
                        help="register the result as a run in this SQLite "
                             "run store")
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        help="fail when p99 latency exceeds this bound")
    parser.add_argument("--max-error-rate", type=float, default=None,
                        help="fail when the error rate exceeds this bound")
    args = parser.parse_args(argv)
    if args.url is None and (args.workers < 1 or args.sim_pool < 1):
        parser.error("--workers and --sim-pool must be at least 1")

    record: dict = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": __import__("os").cpu_count(),
    }
    if args.url:
        load = run_load(
            args.url, clients=args.clients, duration=args.duration,
            submit_ratio=args.submit_ratio,
        )
        load["workers"] = None  # external server: topology unknown
        record["serving"] = load
    else:
        record["serving"] = _hosted_load(
            args.workers, args.sim_pool, args.clients, args.duration,
            args.submit_ratio, args.queue_capacity,
        )

    path = pathlib.Path(args.output)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nwritten to {path}")

    if args.store:
        import hashlib

        from repro.serving.store import RunStore

        load = record["serving"]
        config_hash = hashlib.sha256(
            json.dumps(
                {k: load[k] for k in ("clients", "submit_ratio", "workers")},
                sort_keys=True,
            ).encode()
        ).hexdigest()
        metrics = {
            "requests_per_second": load["requests_per_second"],
            "p50_ms": load["p50_ms"],
            "p99_ms": load["p99_ms"],
            "error_rate": load["error_rate"],
            "rejected": load["rejected"],
        }
        with RunStore(args.store) as store:
            run_id = store.record_run(
                "BENCH-serving-load", config_hash, metrics,
                label=f"{load['clients']} clients x {load['workers']} workers",
            )
        print(f"registered run {run_id} in {args.store}")

    failures = []
    load = record["serving"]
    if args.max_p99_ms is not None and load["p99_ms"] > args.max_p99_ms:
        failures.append(
            f"p99 {load['p99_ms']:.1f}ms exceeds {args.max_p99_ms:.1f}ms"
        )
    if (
        args.max_error_rate is not None
        and load["error_rate"] > args.max_error_rate
    ):
        failures.append(
            f"error rate {load['error_rate']:.2%} exceeds "
            f"{args.max_error_rate:.2%}"
        )
    for message in failures:
        print(f"REGRESSION {message}")
    if not failures and (
        args.max_p99_ms is not None or args.max_error_rate is not None
    ):
        print("within latency/error-rate bounds")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
