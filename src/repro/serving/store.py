"""Persistent run store: a SQLite index over experiment results.

The serving subsystem splits result storage in two.  Heavyweight
artifacts (pickled :class:`~repro.core.stats.SimulationResult` payloads)
stay in the content-addressed ``.report-cache`` blobs managed by
:class:`~repro.evaluation.batch.ResultCache`; this module keeps the
*index* — one row per run with its experiment name, content hash, code
revision, timestamp and a flat JSON metrics document — in a single
SQLite file the HTTP API can query cheaply and CI can upload whole as an
artifact.

Runs are identified by a deterministic 16-hex id derived from
``(experiment, config_hash, git_rev)``, where the revision (the
``git_rev`` column, named before it changed meaning) is
:func:`~repro.evaluation.batch.code_digest`, the hash of the ``repro``
sources that also names the result cache's blob namespace.
Re-registering the same question under the same code upserts the row
instead of growing the table, while changed code (or a changed question)
starts a new trend point.

Concurrency discipline (schema v3)
----------------------------------
A store is a database file in **WAL** journal mode with a ``busy_timeout``,
so readers never block the writer and a writer in one process waits
(rather than erroring) on a writer in another.  Every thread gets its
own connection (:meth:`RunStore._connection` is keyed on thread *and*
pid, so connections are never reused across ``fork``), reads run in
autocommit on the calling thread's connection, and writes are short
``BEGIN IMMEDIATE`` transactions serialised in-process by one lock and
across processes by SQLite itself.  All database access goes through
the ``_read()`` / ``_write()`` scopes — the CON001 lint rule enforces
exactly that.

Besides the ``runs`` index, v3 adds two coordination tables for the
multi-process server (see :mod:`repro.serving.supervisor`):

``jobs``
    The durable submitted-job queue.  Any API worker enqueues with
    :meth:`RunStore.enqueue_job`; any simulation pool worker drains with
    :meth:`RunStore.claim_job` — an atomic claim-by-update, so a job is
    executed exactly once no matter how many workers poll.
``worker_metrics``
    Per-worker metrics snapshots (JSON), merged by whichever worker
    answers a ``/metrics`` scrape.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.evaluation.batch import code_digest
from repro.utils.canonical import canonical_dumps

__all__ = [
    "RunStore",
    "SCHEMA_VERSION",
    "metrics_of",
]

#: numeric encoding of ``SimulationResult.outcome`` for the flat metric
#: documents (strings are dropped by :func:`metrics_of`; the dashboard
#: and API filters need the outcome as a queryable scalar).
OUTCOME_CODES = {"completed": 0, "cutoff": 1, "deadlock": 2}

#: current on-disk schema version (``PRAGMA user_version``).
SCHEMA_VERSION = 4

#: seconds a worker-metrics snapshot stays credible without a heartbeat.
#: Workers republish every ~2s (``jobs.HEARTBEAT_SECONDS``), so a
#: snapshot older than this belongs to a dead worker and must not be
#: merged into ``/metrics`` (the ghost-worker bug fixed in PR 9).
WORKER_METRICS_MAX_AGE = 15.0

#: milliseconds a connection waits on a cross-process write lock before
#: surfacing ``database is locked`` (WAL keeps these waits rare + short).
BUSY_TIMEOUT_MS = 5_000

#: version-2 core: the runs index.
_RUNS_DDL = (
    """
    CREATE TABLE IF NOT EXISTS runs (
        run_id      TEXT PRIMARY KEY,
        experiment  TEXT NOT NULL,
        config_hash TEXT NOT NULL,
        created     REAL NOT NULL,
        metrics     TEXT NOT NULL,
        label       TEXT NOT NULL DEFAULT '',
        git_rev     TEXT NOT NULL DEFAULT ''
    )
    """,
    "CREATE INDEX IF NOT EXISTS runs_experiment ON runs (experiment, created)",
)

#: version-3 additions: the cross-process job queue + metrics snapshots.
_V3_DDL = (
    """
    CREATE TABLE IF NOT EXISTS jobs (
        job_id    TEXT PRIMARY KEY,
        key       TEXT NOT NULL,
        spec      TEXT NOT NULL,
        state     TEXT NOT NULL DEFAULT 'queued',
        cached    INTEGER NOT NULL DEFAULT 0,
        submitted REAL NOT NULL,
        started   REAL,
        finished  REAL,
        error     TEXT,
        run_id    TEXT,
        owner     TEXT NOT NULL DEFAULT ''
    )
    """,
    "CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, submitted)",
    """
    CREATE TABLE IF NOT EXISTS worker_metrics (
        worker  TEXT PRIMARY KEY,
        updated REAL NOT NULL,
        payload TEXT NOT NULL
    )
    """,
)

#: version-4 addition: the trace-context correlation id minted at HTTP
#: ingress rides on the job row so any process (and ``repro trace``)
#: can tie queue-wait, claim and simulation back to one request.
_V4_DDL = (
    "ALTER TABLE jobs ADD COLUMN trace_id TEXT NOT NULL DEFAULT ''",
)

def metrics_of(result: Any) -> dict[str, float]:
    """Flatten any batch-engine result into numeric scalar metrics.

    Handles :class:`SimulationResult` (via ``to_dict``), the dict payload
    of an observed factory (the metrics of its ``result``), and plain
    dicts; anything
    else (e.g. a functional reference trace) yields no metrics — the run
    row still records that the simulation happened.
    """
    if isinstance(result, dict) and "result" in result:
        return metrics_of(result["result"])
    to_dict = getattr(result, "to_dict", None)
    raw = to_dict() if callable(to_dict) else result
    if not isinstance(raw, dict):
        return {}
    out: dict[str, float] = {}
    for name, value in raw.items():
        if isinstance(value, bool):
            out[name] = int(value)
        elif isinstance(value, (int, float)):
            out[name] = value
        elif name == "outcome" and value in OUTCOME_CODES:
            out["outcome_code"] = OUTCOME_CODES[value]
    return out


class RunStore:
    """SQLite-backed index of experiment runs (+ the durable job queue).

    Safe for concurrent use from many threads *and* many processes: the
    store is a database file in WAL mode with one connection per thread,
    lock-free autocommit reads and short serialised write transactions.
    ``":memory:"`` and ``""`` are refused: each connection would open a
    private database of its own.
    """

    def __init__(
        self, path: str | Path, busy_timeout_ms: int = BUSY_TIMEOUT_MS
    ) -> None:
        self.path = str(path)
        if self.path in ("", ":memory:"):
            raise ConfigurationError(
                f"run store {self.path!r} is private to one connection; "
                "give a database file"
            )
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: list[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        self._closed = False
        #: journal mode the first connection actually got ("wal" on local
        #: filesystems; "delete" e.g. on NFS, where WAL is unsupported).
        self.journal_mode = ""
        self._connection()  # create + migrate eagerly, so errors surface here
        with self._write() as conn:
            self._migrate(conn)

    # -------------------------------------------------- connection scopes
    def _connection(self) -> sqlite3.Connection:
        """This thread's connection, created on first use.

        Keyed on pid as well as thread: a connection carried across
        ``fork`` into a child process would corrupt the database, so the
        child transparently gets a fresh one.
        """
        if self._closed:
            raise ConfigurationError(f"run store {self.path} is closed")
        conn = getattr(self._local, "conn", None)
        if conn is None or self._local.pid != os.getpid():
            conn = self._connect()
            self._local.conn = conn
            self._local.pid = os.getpid()
        return conn

    def _connect(self) -> sqlite3.Connection:
        # isolation_level=None -> autocommit; _write() opens explicit
        # short BEGIN IMMEDIATE transactions, reads never hold one.
        conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        conn.row_factory = sqlite3.Row
        conn.execute(f"PRAGMA busy_timeout = {self.busy_timeout_ms}")
        mode = conn.execute("PRAGMA journal_mode = WAL").fetchone()[0]
        conn.execute("PRAGMA synchronous = NORMAL")
        if not self.journal_mode:
            self.journal_mode = str(mode).lower()
        with self._conns_lock:
            self._conns.append(conn)
        return conn

    @contextmanager
    def _read(self):
        """Autocommit read scope: the calling thread's own connection,
        lock-free (WAL snapshots isolate it from the writer)."""
        yield self._connection()

    @contextmanager
    def _write(self):
        """Short-transaction write scope.

        One ``BEGIN IMMEDIATE`` … ``COMMIT`` per entry: the in-process
        lock serialises writers sharing this store object, and IMMEDIATE
        acquires the cross-process write lock up front so the whole
        scope either runs or waits — no mid-transaction upgrades, no
        deadlocks between processes.
        """
        conn = self._connection()
        with self._lock:
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")

    # ------------------------------------------------------------- schema
    # repro: allow[CON001] -- runs inside the _write() scope passed in by
    # __init__; the conn parameter is that scope's connection
    def _migrate(self, conn: sqlite3.Connection) -> None:
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise ConfigurationError(
                f"run store {self.path} has schema version {version}; "
                f"this build understands up to {SCHEMA_VERSION}"
            )
        if version == 0:
            for ddl in _RUNS_DDL + _V3_DDL + _V4_DDL:
                conn.execute(ddl)
        else:
            if version == 1:
                # v1 predates the label / git_rev columns and the
                # experiment index; rows keep their data, new columns
                # default to ''.
                conn.execute(
                    "ALTER TABLE runs ADD COLUMN label TEXT NOT NULL DEFAULT ''"
                )
                conn.execute(
                    "ALTER TABLE runs ADD COLUMN git_rev TEXT NOT NULL DEFAULT ''"
                )
                conn.execute(
                    "CREATE INDEX IF NOT EXISTS runs_experiment "
                    "ON runs (experiment, created)"
                )
            if version <= 2:
                # v2 -> v3: the cross-process job queue and per-worker
                # metrics snapshots; the runs table is untouched.
                for ddl in _V3_DDL:
                    conn.execute(ddl)
            if version <= 3:
                # v3 -> v4: trace-context id on the jobs queue; existing
                # rows keep their data with an empty trace id.
                for ddl in _V4_DDL:
                    conn.execute(ddl)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
            self._closed = True
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self) -> RunStore:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ writing
    def record_run(
        self,
        experiment: str,
        config_hash: str,
        metrics: dict[str, float],
        label: str = "",
        git_rev: str | None = None,
        run_id: str | None = None,
        created: float | None = None,
    ) -> str:
        """Insert or upsert one run; returns its id."""
        git_rev = code_digest() if git_rev is None else git_rev
        created = time.time() if created is None else created
        if run_id is None:
            run_id = hashlib.sha256(
                f"{experiment}|{config_hash}|{git_rev}".encode()
            ).hexdigest()[:16]
        with self._write() as conn:
            conn.execute(
                "INSERT INTO runs "
                "(run_id, experiment, config_hash, created, metrics, label, git_rev) "
                "VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(run_id) DO UPDATE SET "
                "created = excluded.created, metrics = excluded.metrics, "
                "label = excluded.label",
                (
                    run_id,
                    experiment,
                    config_hash,
                    created,
                    canonical_dumps(metrics),
                    label,
                    git_rev,
                ),
            )
        return run_id

    def record_result(
        self,
        key: str,
        result: Any,
        job: Any | None = None,
        experiment: str | None = None,
    ) -> str:
        """Register one batch-engine result (the ``ResultCache.put`` hook).

        ``key`` is the job's content key (:func:`~repro.evaluation.batch.job_key`);
        the experiment name defaults to ``sim/<factory>`` so individual
        simulations are distinguishable from experiment-level summaries.
        """
        if experiment is None:
            factory = getattr(job, "factory", None)
            experiment = f"sim/{factory}" if factory else "sim"
        label = getattr(job, "label", "") or ""
        return self.record_run(
            experiment, key, metrics_of(result), label=label
        )

    # ---------------------------------------------------------- retention
    def prune(
        self,
        max_runs: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
    ) -> dict[str, int]:
        """Run-retention GC, mirroring the blob cache's ``prune``.

        ``max_age_days`` drops runs recorded longer ago than that (and
        settled jobs that finished before the same cutoff); ``max_runs``
        then keeps only the most recent N runs.  Queued and running jobs
        are never pruned.  Returns removal/keep counts.
        """
        removed_runs = removed_jobs = 0
        with self._write() as conn:
            if max_age_days is not None:
                cutoff = (time.time() if now is None else now) - max_age_days * 86_400
                cur = conn.execute(
                    "DELETE FROM runs WHERE created < ?", (cutoff,)
                )
                removed_runs += cur.rowcount
                cur = conn.execute(
                    "DELETE FROM jobs WHERE state IN ('done', 'failed') "
                    "AND finished IS NOT NULL AND finished < ?",
                    (cutoff,),
                )
                removed_jobs += cur.rowcount
            if max_runs is not None:
                cur = conn.execute(
                    "DELETE FROM runs WHERE run_id NOT IN ("
                    "SELECT run_id FROM runs "
                    "ORDER BY created DESC, run_id LIMIT ?)",
                    (max(0, int(max_runs)),),
                )
                removed_runs += cur.rowcount
            kept = conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        return {
            "removed_runs": removed_runs,
            "removed_jobs": removed_jobs,
            "kept_runs": kept,
        }

    # ------------------------------------------------------------ reading
    @staticmethod
    def _row_to_dict(row: sqlite3.Row) -> dict[str, Any]:
        out = dict(row)
        out["metrics"] = json.loads(out["metrics"])
        return out

    def get_run(self, run_id: str) -> dict[str, Any] | None:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return self._row_to_dict(row) if row is not None else None

    def list_runs(
        self,
        experiment: str | None = None,
        limit: int = 100,
        offset: int = 0,
    ) -> list[dict[str, Any]]:
        """Most recent runs first, optionally restricted to one experiment."""
        sql = "SELECT * FROM runs"
        args: list[Any] = []
        if experiment is not None:
            sql += " WHERE experiment = ?"
            args.append(experiment)
        sql += " ORDER BY created DESC, run_id LIMIT ? OFFSET ?"
        args += [max(0, int(limit)), max(0, int(offset))]
        with self._read() as conn:
            rows = conn.execute(sql, args).fetchall()
        return [self._row_to_dict(r) for r in rows]

    def experiments(self) -> list[dict[str, Any]]:
        """Distinct experiment names with run counts and recency."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT experiment, COUNT(*) AS runs, MAX(created) AS last_created "
                "FROM runs GROUP BY experiment ORDER BY experiment"
            ).fetchall()
        return [dict(r) for r in rows]

    def count(self) -> int:
        with self._read() as conn:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    # ------------------------------------------------------------- diffing
    def diff(self, run_a: str, run_b: str) -> dict[str, Any]:
        """Metric-by-metric comparison of two runs.

        Raises :class:`KeyError` naming the missing id when either run is
        absent (the API layer maps that to a 404).
        """
        a, b = self.get_run(run_a), self.get_run(run_b)
        if a is None:
            raise KeyError(run_a)
        if b is None:
            raise KeyError(run_b)
        metrics: dict[str, dict[str, Any]] = {}
        for name in sorted(set(a["metrics"]) | set(b["metrics"])):
            va, vb = a["metrics"].get(name), b["metrics"].get(name)
            entry: dict[str, Any] = {"a": va, "b": vb}
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                entry["delta"] = vb - va
                if va:
                    entry["ratio"] = vb / va
            metrics[name] = entry
        strip = ("metrics",)
        return {
            "a": {k: v for k, v in a.items() if k not in strip},
            "b": {k: v for k, v in b.items() if k not in strip},
            "metrics": metrics,
        }

    # ------------------------------------------------------- the job queue
    @staticmethod
    def _job_row(row: sqlite3.Row) -> dict[str, Any]:
        out = dict(row)
        out["cached"] = bool(out["cached"])
        out["spec"] = json.loads(out["spec"])
        return out

    def enqueue_job(
        self,
        job_id: str,
        key: str,
        spec: dict[str, Any],
        capacity: int | None = None,
        state: str = "queued",
        cached: bool = False,
        run_id: str | None = None,
        submitted: float | None = None,
        finished: float | None = None,
        trace_id: str = "",
    ) -> bool:
        """Insert one submitted-job row; ``False`` when the queue is full.

        The capacity check and the insert run in one write transaction,
        so the queued backlog stays bounded even with many API workers
        enqueueing concurrently.  Cache-answered submissions are inserted
        already settled (``state='done'``) for cross-worker visibility.
        """
        submitted = time.time() if submitted is None else submitted
        with self._write() as conn:
            if capacity is not None and state == "queued":
                depth = conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE state = 'queued'"
                ).fetchone()[0]
                if depth >= capacity:
                    return False
            conn.execute(
                "INSERT INTO jobs "
                "(job_id, key, spec, state, cached, submitted, finished, "
                "run_id, trace_id) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    job_id,
                    key,
                    canonical_dumps(spec),
                    state,
                    int(cached),
                    submitted,
                    finished,
                    run_id,
                    trace_id,
                ),
            )
        return True

    def claim_job(self, owner: str) -> dict[str, Any] | None:
        """Atomically claim the oldest queued job for ``owner``.

        Claim-by-update: the row flips ``queued -> running`` inside one
        immediate transaction, so concurrent claimers (threads or whole
        processes) each get a distinct job.  ``None`` when the queue is
        empty.
        """
        now = time.time()
        with self._write() as conn:
            row = conn.execute(
                "SELECT job_id FROM jobs WHERE state = 'queued' "
                "ORDER BY submitted, job_id LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            cur = conn.execute(
                "UPDATE jobs SET state = 'running', owner = ?, started = ? "
                "WHERE job_id = ? AND state = 'queued'",
                (owner, now, row[0]),
            )
            if cur.rowcount == 0:  # pragma: no cover - cross-process race
                return None
            claimed = conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (row[0],)
            ).fetchone()
        return self._job_row(claimed)

    def finish_job(
        self,
        job_id: str,
        state: str,
        error: str | None = None,
        run_id: str | None = None,
    ) -> None:
        """Settle a claimed job as ``done`` or ``failed``."""
        with self._write() as conn:
            conn.execute(
                "UPDATE jobs SET state = ?, error = ?, run_id = ?, finished = ? "
                "WHERE job_id = ?",
                (state, error, run_id, time.time(), job_id),
            )

    def get_job(self, job_id: str) -> dict[str, Any] | None:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return self._job_row(row) if row is not None else None

    def list_jobs(self, limit: int = 200) -> list[dict[str, Any]]:
        """Most recently submitted first (all workers' submissions)."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs ORDER BY submitted DESC, job_id LIMIT ?",
                (max(0, int(limit)),),
            ).fetchall()
        return [self._job_row(r) for r in rows]

    def queued_depth(self) -> int:
        """Jobs enqueued but not yet claimed by any worker."""
        with self._read() as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = 'queued'"
            ).fetchone()[0]

    def job_for_run(self, run_id: str) -> dict[str, Any] | None:
        """The newest job row that produced ``run_id`` (trace assembly)."""
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE run_id = ? "
                "ORDER BY submitted DESC, job_id LIMIT 1",
                (run_id,),
            ).fetchone()
        return self._job_row(row) if row is not None else None

    # ------------------------------------------------- worker metric sync
    def publish_worker_metrics(
        self,
        worker: str,
        payload: dict[str, Any],
        now: float | None = None,
    ) -> None:
        """Upsert one worker's metrics snapshot (JSON document).

        ``now`` overrides the heartbeat timestamp (tests only).
        """
        with self._write() as conn:
            conn.execute(
                "INSERT INTO worker_metrics (worker, updated, payload) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(worker) DO UPDATE SET "
                "updated = excluded.updated, payload = excluded.payload",
                (worker, time.time() if now is None else now,
                 canonical_dumps(payload)),
            )

    def worker_metrics(
        self,
        max_age: float = WORKER_METRICS_MAX_AGE,
        now: float | None = None,
    ) -> dict[str, dict[str, Any]]:
        """Fresh snapshots by worker name (stale rows are dead workers).

        Workers heartbeat their snapshot every couple of seconds even
        when idle, so anything older than ``max_age`` is a ghost — a
        crashed or killed worker whose row was never cleared — and is
        excluded from the merged ``/metrics`` view.
        """
        cutoff = (time.time() if now is None else now) - max_age
        with self._read() as conn:
            rows = conn.execute(
                "SELECT worker, payload FROM worker_metrics "
                "WHERE updated >= ? ORDER BY worker",
                (cutoff,),
            ).fetchall()
        out: dict[str, dict[str, Any]] = {}
        for row in rows:
            try:
                out[row["worker"]] = json.loads(row["payload"])
            except ValueError:  # pragma: no cover - corrupt row
                continue
        return out

    def clear_worker_metrics(self, worker: str | None = None) -> None:
        """Drop one worker's snapshot row, or all of them."""
        with self._write() as conn:
            if worker is None:
                conn.execute("DELETE FROM worker_metrics")
            else:
                conn.execute(
                    "DELETE FROM worker_metrics WHERE worker = ?", (worker,)
                )
