"""Threaded HTTP JSON API over the run store, plus the dashboard page.

The request logic lives in :class:`ServingApp.handle`, a function from
``(method, path, query, headers, body)`` to ``(status, headers,
payload)`` — testable without sockets — and a thin
:class:`http.server.BaseHTTPRequestHandler` adapter plugs it into a
:class:`~http.server.ThreadingHTTPServer` on the supervisor's listening
socket.  There is one shape: every API worker of ``python -m repro
serve`` builds one app over its own
:class:`~repro.serving.jobs.StoreJobQueue` (see
:mod:`repro.serving.supervisor`), and nothing else builds one.

Endpoints::

    GET  /                   dashboard (self-contained HTML)
    GET  /metrics            Prometheus text exposition (always on)
    GET  /api/health         service + store + cache counters
    GET  /api/runs           run list   (?experiment=&limit=&offset=)
    GET  /api/runs/<id>      one run    (?format=text for a curl view)
    GET  /api/runs/<id>/artifact     full result payload from the blob cache
    GET  /api/runs/<id>/timeseries   per-cycle telemetry series of the run
    GET  /api/experiments    distinct experiments with counts
    GET  /api/diff?a=&b=     metric-by-metric diff of two runs
    GET  /api/runs/<id>/decisions    steering decision ledger of the run
    GET  /api/logs           structured event log (?trace=&event=&limit=)
    GET  /api/jobs           submitted-job records
    GET  /api/jobs/<id>      one submitted job
    POST /api/jobs           submit a simulation job spec (202 / 200 cached;
                             400 for a spec that can never run, see
                             :mod:`repro.serving.jobs`)

Job submissions mint a trace-context id (honouring an
``X-Repro-Trace-Id`` request header) that rides on the job row through
claim and simulation, stamps every event-log record the job touches,
and lets ``repro trace <run-id>`` assemble one merged Perfetto file per
request — see :mod:`repro.telemetry.tracing2`.

Every request is counted and timed into the worker's
:class:`~repro.telemetry.MetricsRegistry` (labels are the route
*template*, never the raw path, so cardinality stays bounded) and
written to the event log as one ``http_request`` record (echoed to
stderr under ``repro serve --verbose``).  ``GET /metrics`` publishes
this worker's snapshot to the store and answers with every live
worker's series, ``worker``-labelled; ``GET /api/logs`` reads the event
log's file sink, which every worker of the server appends to.

Run and diff responses carry an ``ETag`` derived from the run's content
hash (``If-None-Match`` revalidates to 304) and a ``Cache-Control``
matched to the resource's mutability: artifacts are content-addressed
and therefore immutable; run rows can be upserted and get a short TTL.
"""

from __future__ import annotations

import json
import re
import time
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError
from repro.evaluation.report import render_kv
from repro.serving.dashboard import DASHBOARD_HTML
from repro.serving.jobs import JobQueueFull, StoreJobQueue
from repro.telemetry import (
    TRACE_HEADER,
    mint_trace_id,
    read_events,
    render_merged,
)

__all__ = ["ServingApp", "make_server"]

_RUN_PATH = re.compile(r"/api/runs/([0-9a-f]{8,64})")
_BLOB_PATH = re.compile(
    r"/api/runs/([0-9a-f]{8,64})/(artifact|timeseries|decisions)"
)
_JOB_PATH = re.compile(r"/api/jobs/([\w-]+)")

#: last-run metrics surfaced as gauges on /metrics.
_LAST_RUN_METRICS = (
    "ipc", "cycles", "retired", "reconfigurations", "steering_mean_error",
)

#: Cache-Control values by resource mutability.
_CC_IMMUTABLE = "public, max-age=31536000, immutable"
_CC_RUN = "public, max-age=60"
_CC_NONE = "no-cache"

#: the endpoints served from a run's result-cache blob, by the path's last
#: segment (``artifact`` serves the whole result, the others the payload
#: part of that name): (ETag template, the 404 text after "run <id> has ").
_BLOB_ENDPOINTS = {
    "artifact": ('"{key}"', "no cached artifact (key {key:.12}…)"),
    "timeseries": (
        '"{key:.24}.ts"',
        "no telemetry time series (only telemetry-enabled runs carry one)",
    ),
    "decisions": (
        '"{key:.24}.dec"',
        "no decision ledger (only ledger-enabled runs carry one)",
    ),
}


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of a result payload to JSON-safe values."""
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return _jsonable(to_dict())
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class ServingApp:
    """The HTTP-facing façade over one API worker's job queue.

    The queue carries everything the app serves: the worker's name
    (``jobs.owner``), its store connection, result cache, event log and
    metrics registry.
    """

    def __init__(self, jobs: StoreJobQueue) -> None:
        self.jobs = jobs
        self.store = jobs.store
        self.cache = jobs.cache
        self.events = jobs.events
        self.registry = jobs.registry
        self.worker_name = jobs.owner
        self.started = time.time()
        self._requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by method/route/status.",
            ("method", "route", "status"),
        )
        self._latency = self.registry.histogram(
            "repro_http_request_seconds",
            "Request handling latency in seconds.",
            ("route",),
        )
        self._rejected = self.registry.counter(
            "repro_jobs_rejected_total",
            "Job submissions rejected with 503, by reason.",
            ("reason",),
        )

    # -------------------------------------------------------- entry point
    def handle(
        self,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
        body: bytes = b"",
    ) -> tuple[int, dict[str, str], bytes]:
        query = query or {}
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        start = time.perf_counter()
        try:
            response = self._route(method, path, query, headers, body)
        except ReproError as exc:
            response = self._error(400, str(exc))
        except KeyError as exc:
            response = self._error(404, f"no such run: {exc.args[0]}")
        elapsed = time.perf_counter() - start
        route = self._route_label(path)
        self._requests.labels(method, route, str(response[0])).inc()
        self._latency.labels(route).observe(elapsed)
        self.events.emit(
            "http_request", worker=self.worker_name, method=method,
            path=path, status=response[0],
            latency_ms=round(elapsed * 1000, 3),
        )
        return response

    _KNOWN_ROUTES = frozenset(
        {
            "/", "/metrics", "/api/health", "/api/runs", "/api/experiments",
            "/api/diff", "/api/jobs", "/api/logs",
        }
    )

    @classmethod
    def _route_label(cls, path: str) -> str:
        """Collapse a request path to its route template (bounded label set)."""
        if path == "/index.html":
            return "/"
        if path in cls._KNOWN_ROUTES:
            return path
        match = _BLOB_PATH.fullmatch(path)
        if match:
            return "/api/runs/{id}/" + match.group(2)
        if _RUN_PATH.fullmatch(path):
            return "/api/runs/{id}"
        if _JOB_PATH.fullmatch(path):
            return "/api/jobs/{id}"
        return "(other)"

    def _route(self, method, path, query, headers, body):
        if method in ("GET", "HEAD"):
            if path in ("/", "/index.html"):
                return (
                    200,
                    {
                        "Content-Type": "text/html; charset=utf-8",
                        "Cache-Control": _CC_NONE,
                    },
                    DASHBOARD_HTML.encode(),
                )
            if path == "/metrics":
                return self._metrics()
            if path == "/api/health":
                return self._health()
            if path == "/api/runs":
                return self._runs(query)
            if path == "/api/experiments":
                return self._experiments()
            if path == "/api/diff":
                return self._diff(query, headers)
            match = _BLOB_PATH.fullmatch(path)
            if match:
                return self._blob(*match.groups(), headers)
            match = _RUN_PATH.fullmatch(path)
            if match:
                return self._run(match.group(1), query, headers)
            if path == "/api/logs":
                return self._logs(query)
            if path == "/api/jobs":
                return self._jobs_list()
            match = _JOB_PATH.fullmatch(path)
            if match:
                return self._job(match.group(1))
        elif method == "POST":
            if path == "/api/jobs":
                return self._submit(headers, body)
            return self._error(405, f"POST not supported on {path}")
        else:
            return self._error(405, f"method {method} not supported")
        return self._error(404, f"no such resource: {path}")

    # ----------------------------------------------------------- responses
    @staticmethod
    def _json(
        status: int,
        payload: Any,
        etag: str | None = None,
        cache_control: str | None = None,
        extra: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        headers = {"Content-Type": "application/json; charset=utf-8"}
        if etag is not None:
            headers["ETag"] = etag
        if cache_control is not None:
            headers["Cache-Control"] = cache_control
        if extra:
            headers.update(extra)
        body = json.dumps(payload, indent=1, sort_keys=True).encode()
        return status, headers, body + b"\n"

    @classmethod
    def _error(cls, status: int, message: str):
        return cls._json(status, {"error": message, "status": status})

    @staticmethod
    def _etag_matches(headers: dict[str, str], etag: str) -> bool:
        got = headers.get("if-none-match", "")
        return got == "*" or etag in [t.strip() for t in got.split(",")]

    @staticmethod
    def _run_etag(run: dict[str, Any]) -> str:
        return f'"{run["config_hash"][:24]}.{int(run["created"])}"'

    def _not_modified(self, etag: str, cache_control: str):
        return 304, {"ETag": etag, "Cache-Control": cache_control}, b""

    # ------------------------------------------------------------- handlers
    def _metrics(self):
        """Prometheus text exposition: request metrics + live gauges."""
        r = self.registry
        r.gauge(
            "repro_uptime_seconds", "Seconds since the server started."
        ).set(time.time() - self.started)
        r.gauge(
            "repro_store_runs", "Runs indexed in the run store."
        ).set(self.store.count())
        r.gauge(
            "repro_jobs_pending", "Submitted jobs queued but not started."
        ).set(self.jobs.depth())
        stats = self.cache.stats()
        r.gauge(
            "repro_cache_memory_entries", "Result-cache in-memory entries."
        ).set(stats["memory_entries"])
        r.gauge(
            "repro_cache_disk_blobs", "Result-cache blobs on disk."
        ).set(stats["disk_blobs"])
        r.gauge(
            "repro_cache_disk_bytes", "Result-cache bytes on disk."
        ).set(stats["disk_bytes"])
        r.gauge(
            "repro_cache_hits", "Result-cache hits over this process."
        ).set(stats["hits"])
        r.gauge(
            "repro_cache_misses", "Result-cache misses over this process."
        ).set(stats["misses"])
        runs = self.store.list_runs(limit=1)
        if runs:
            metrics = runs[0].get("metrics") or {}
            last = r.gauge(
                "repro_last_run_metric",
                "Simulator metrics of the most recently recorded run.",
                ("metric",),
            )
            for name in _LAST_RUN_METRICS:
                value = metrics.get(name)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    last.labels(name).set(value)
        # Publish this worker's fresh snapshot, then answer with the
        # merged view: every live worker's series, `worker`-labelled.
        self.store.publish_worker_metrics(self.worker_name, r.snapshot())
        body = render_merged(self.store.worker_metrics())
        return (
            200,
            {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                "Cache-Control": _CC_NONE,
            },
            body.encode(),
        )

    def _health(self):
        payload = {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started, 1),
            "runs": self.store.count(),
            "experiments": len(self.store.experiments()),
            "cache": self.cache.stats(),
            "jobs_pending": self.jobs.depth(),
        }
        return self._json(200, payload, cache_control=_CC_NONE)

    def _runs(self, query):
        try:
            limit = int(query.get("limit", 100))
            offset = int(query.get("offset", 0))
        except ValueError:
            return self._error(400, "limit/offset must be integers")
        runs = self.store.list_runs(
            experiment=query.get("experiment"), limit=limit, offset=offset
        )
        return self._json(
            200,
            {"runs": runs, "count": len(runs)},
            cache_control=_CC_NONE,
        )

    def _experiments(self):
        return self._json(
            200, {"experiments": self.store.experiments()}, cache_control=_CC_NONE
        )

    def _run(self, run_id, query, headers):
        run = self.store.get_run(run_id)
        if run is None:
            return self._error(404, f"no such run: {run_id}")
        etag = self._run_etag(run)
        if self._etag_matches(headers, etag):
            return self._not_modified(etag, _CC_RUN)
        run["artifact"] = self.cache.has(run["config_hash"])
        if query.get("format") == "text":
            flat = {k: v for k, v in run.items() if k != "metrics"}
            text = (
                render_kv(flat, title=f"run {run_id}")
                + "\n\n"
                + render_kv(run["metrics"], title="metrics")
                + "\n"
            )
            return (
                200,
                {
                    "Content-Type": "text/plain; charset=utf-8",
                    "ETag": etag,
                    "Cache-Control": _CC_RUN,
                },
                text.encode(),
            )
        return self._json(200, run, etag=etag, cache_control=_CC_RUN)

    def _blob(self, run_id, name, headers):
        """A run's result-cache blob: whole (``artifact``), or one part of
        an observed run's payload (``timeseries``, ``decisions``; only
        ``steering-telemetry`` runs carry them).  Content-addressed, hence
        immutable.  An absent blob is a 404: never cached, or cached under
        another code digest whose namespace has been pruned since.
        """
        run = self.store.get_run(run_id)
        if run is None:
            return self._error(404, f"no such run: {run_id}")
        key = run["config_hash"]
        etag, missing = _BLOB_ENDPOINTS[name]
        etag = etag.format(key=key)
        if self._etag_matches(headers, etag):
            return self._not_modified(etag, _CC_IMMUTABLE)
        payload = self.cache.get(key)
        if name != "artifact":
            payload = payload.get(name) if isinstance(payload, dict) else None
        if payload is None:
            return self._error(404, f"run {run_id} has " + missing.format(key=key))
        return self._json(
            200,
            {"run_id": run_id, "key": key, name: _jsonable(payload)},
            etag=etag,
            cache_control=_CC_IMMUTABLE,
        )

    def _logs(self, query):
        """Tail of the shared event-log sink (every process's records),
        filterable by trace/event."""
        try:
            limit = int(query.get("limit", 100))
        except ValueError:
            return self._error(400, "limit must be an integer")
        limit = max(1, min(limit, 1000))
        trace = query.get("trace") or None
        event = query.get("event") or None
        entries = read_events(
            self.events.path, trace=trace, event=event, limit=limit
        )
        return self._json(
            200,
            {"events": entries, "count": len(entries)},
            cache_control=_CC_NONE,
        )

    def _diff(self, query, headers):
        a, b = query.get("a"), query.get("b")
        if not a or not b:
            return self._error(400, "diff needs ?a=<run_id>&b=<run_id>")
        diff = self.store.diff(a, b)  # KeyError -> 404 via handle()
        etag = (
            f'"{diff["a"]["config_hash"][:16]}'
            f'.{diff["b"]["config_hash"][:16]}"'
        )
        if self._etag_matches(headers, etag):
            return self._not_modified(etag, _CC_RUN)
        return self._json(200, diff, etag=etag, cache_control=_CC_RUN)

    def _jobs_list(self):
        return self._json(
            200,
            {"jobs": [r.to_dict() for r in self.jobs.list()]},
            cache_control=_CC_NONE,
        )

    def _job(self, job_id):
        record = self.jobs.get(job_id)
        if record is None:
            return self._error(404, f"no such job: {job_id}")
        return self._json(200, record.to_dict(), cache_control=_CC_NONE)

    def _submit(self, headers, body):
        try:
            spec = json.loads(body or b"")
        except json.JSONDecodeError as exc:
            return self._error(400, f"body is not valid JSON: {exc}")
        # trace context is born here: honour the client's id or mint one
        trace_id = mint_trace_id(headers.get(TRACE_HEADER.lower()))
        try:
            record = self.jobs.submit(spec, trace_id=trace_id)
        except JobQueueFull as exc:
            self._rejected.labels("queue_full").inc()
            return self._json(
                503,
                {"error": str(exc), "status": 503},
                extra={"Retry-After": "1"},
            )
        self.events.emit(
            "job_submitted", trace=trace_id, job_id=record.job_id,
            state=record.state, cached=record.cached,
        )
        # cached submissions are already complete; fresh ones are accepted
        status = 200 if record.cached else 202
        return self._json(status, record.to_dict(), cache_control=_CC_NONE)


# ----------------------------------------------------------- socket layer
def make_server(app: ServingApp, host: str, sock):
    """Build a ThreadingHTTPServer around ``app`` that accepts on ``sock``.

    ``sock`` is bound and listening already: each supervisor API worker
    passes the listening socket it inherited, and the server adopts it.
    Accepted connections have ``TCP_NODELAY`` set, so a response on a
    keep-alive connection never waits for the client's delayed ACK.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serving/1.0"
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY on every accepted connection: headers and body go
        # out in two sends, and on a keep-alive socket Nagle would hold
        # the body until the client's delayed ACK (~40 ms) of the headers
        disable_nagle_algorithm = True

        def _dispatch(self, method: str) -> None:
            parts = urlsplit(self.path)
            query = {
                k: v[-1] for k, v in parse_qs(parts.query).items()
            }
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            status, headers, payload = self.server.app.handle(
                method, parts.path, query, dict(self.headers), body
            )
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            if method != "HEAD" and status != 304:
                self.wfile.write(payload)

        def do_GET(self):
            self._dispatch("GET")

        def do_HEAD(self):
            self._dispatch("HEAD")

        def do_POST(self):
            self._dispatch("POST")

        def log_message(self, fmt, *args):  # quiet by default
            pass

    server = ThreadingHTTPServer(
        sock.getsockname(), Handler, bind_and_activate=False
    )
    server.socket.close()
    server.socket = sock
    server.server_address = sock.getsockname()
    server.server_name = host
    server.server_port = server.server_address[1]
    server.daemon_threads = True
    server.app = app
    return server

