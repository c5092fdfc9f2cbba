"""Tests for the persistent run store (SQLite index)."""

import sqlite3

import pytest

from repro.errors import ConfigurationError
from repro.evaluation.batch import code_digest
from repro.serving.store import SCHEMA_VERSION, RunStore, metrics_of


# ---------------------------------------------------------------- round-trip
def test_record_and_get_run(store_path):
    with RunStore(store_path) as store:
        run_id = store.record_run(
            "E-IPC", "a" * 64, {"mean_ipc": 1.5, "wins": 3},
            label="fast", git_rev="abc1234",
        )
        run = store.get_run(run_id)
    assert run["experiment"] == "E-IPC"
    assert run["config_hash"] == "a" * 64
    assert run["metrics"] == {"mean_ipc": 1.5, "wins": 3}
    assert run["label"] == "fast"
    assert run["git_rev"] == "abc1234"


def test_run_id_is_deterministic_and_upserts(store_path):
    with RunStore(store_path) as store:
        first = store.record_run("E", "c" * 64, {"x": 1}, git_rev="r1")
        again = store.record_run("E", "c" * 64, {"x": 2}, git_rev="r1")
        other = store.record_run("E", "c" * 64, {"x": 1}, git_rev="r2")
        assert first == again
        assert other != first
        assert store.count() == 2
        assert store.get_run(first)["metrics"] == {"x": 2}


def test_list_runs_most_recent_first_and_filters(store_path):
    with RunStore(store_path) as store:
        store.record_run("A", "1" * 64, {}, created=100.0)
        store.record_run("B", "2" * 64, {}, created=200.0)
        store.record_run("A", "3" * 64, {}, created=300.0)
        runs = store.list_runs()
        assert [r["created"] for r in runs] == [300.0, 200.0, 100.0]
        only_a = store.list_runs(experiment="A")
        assert {r["experiment"] for r in only_a} == {"A"}
        assert len(store.list_runs(limit=1)) == 1
        assert store.list_runs(limit=1, offset=1)[0]["created"] == 200.0


def test_experiments_summary(store_path):
    with RunStore(store_path) as store:
        store.record_run("A", "1" * 64, {}, created=10.0)
        store.record_run("A", "2" * 64, {}, created=20.0)
        store.record_run("B", "3" * 64, {}, created=30.0)
        summary = {e["experiment"]: e for e in store.experiments()}
    assert summary["A"]["runs"] == 2
    assert summary["A"]["last_created"] == 20.0
    assert summary["B"]["runs"] == 1


def test_persists_to_disk(tmp_path):
    db = tmp_path / "runs.sqlite"
    with RunStore(db) as store:
        run_id = store.record_run("E", "d" * 64, {"ipc": 2.0})
    with RunStore(db) as store:
        assert store.get_run(run_id)["metrics"] == {"ipc": 2.0}


# ------------------------------------------------------------------ diffing
def test_diff_metrics(store_path):
    with RunStore(store_path) as store:
        a = store.record_run("E", "a" * 64, {"ipc": 2.0, "only_a": 1.0})
        b = store.record_run("E", "b" * 64, {"ipc": 3.0, "only_b": 4.0})
        diff = store.diff(a, b)
    assert diff["a"]["run_id"] == a
    assert diff["metrics"]["ipc"] == {
        "a": 2.0, "b": 3.0, "delta": 1.0, "ratio": 1.5,
    }
    assert diff["metrics"]["only_a"] == {"a": 1.0, "b": None}
    assert diff["metrics"]["only_b"] == {"a": None, "b": 4.0}


def test_diff_missing_run_raises_keyerror(store_path):
    with RunStore(store_path) as store:
        a = store.record_run("E", "a" * 64, {})
        with pytest.raises(KeyError, match="ffff"):
            store.diff(a, "f" * 16)


# ---------------------------------------------------------------- migration
def _make_v1_db(path):
    """A database as the (hypothetical) v1 code would have left it."""
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE runs (
            run_id      TEXT PRIMARY KEY,
            experiment  TEXT NOT NULL,
            config_hash TEXT NOT NULL,
            created     REAL NOT NULL,
            metrics     TEXT NOT NULL
        );
        """
    )
    conn.execute(
        "INSERT INTO runs VALUES (?, ?, ?, ?, ?)",
        ("0123456789abcdef", "E-OLD", "e" * 64, 123.0, '{"ipc": 1.25}'),
    )
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()


def test_migrates_v1_schema(tmp_path):
    db = tmp_path / "v1.sqlite"
    _make_v1_db(db)
    with RunStore(db) as store:
        run = store.get_run("0123456789abcdef")
        assert run["metrics"] == {"ipc": 1.25}
        assert run["label"] == ""
        assert run["git_rev"] == ""
        # new writes use the new columns
        store.record_run("E-NEW", "f" * 64, {}, label="l", git_rev="r")
    version = sqlite3.connect(db).execute("PRAGMA user_version").fetchone()[0]
    assert version == SCHEMA_VERSION


def test_rejects_future_schema(tmp_path):
    db = tmp_path / "future.sqlite"
    conn = sqlite3.connect(db)
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    conn.commit()
    conn.close()
    with pytest.raises(ConfigurationError, match="schema version"):
        RunStore(db)


def _make_v2_db(path):
    """A database exactly as the v2 (pre-WAL, pre-jobs) code left it."""
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE runs (
            run_id      TEXT PRIMARY KEY,
            experiment  TEXT NOT NULL,
            config_hash TEXT NOT NULL,
            created     REAL NOT NULL,
            metrics     TEXT NOT NULL,
            label       TEXT NOT NULL DEFAULT '',
            git_rev     TEXT NOT NULL DEFAULT ''
        );
        CREATE INDEX runs_experiment ON runs (experiment, created);
        """
    )
    conn.execute(
        "INSERT INTO runs VALUES (?, ?, ?, ?, ?, ?, ?)",
        ("fedcba9876543210", "E-V2", "a" * 64, 456.0, '{"ipc": 2.5}',
         "lbl", "rev2"),
    )
    conn.execute("PRAGMA user_version = 2")
    conn.commit()
    conn.close()


def test_migrates_v2_schema_to_v3(tmp_path):
    db = tmp_path / "v2.sqlite"
    _make_v2_db(db)
    with RunStore(db) as store:
        # v2 rows survive untouched
        run = store.get_run("fedcba9876543210")
        assert run["metrics"] == {"ipc": 2.5}
        assert run["label"] == "lbl"
        assert run["git_rev"] == "rev2"
        # v3 tables exist and work immediately after migration
        assert store.enqueue_job("job-1", "k" * 64, {"target": "checksum"})
        assert store.queued_depth() == 1
        store.publish_worker_metrics("api-0", {"m": {"kind": "counter"}})
        assert "api-0" in store.worker_metrics()
    conn = sqlite3.connect(db)
    assert conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
    tables = {
        r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    conn.close()
    assert {"runs", "jobs", "worker_metrics"} <= tables


def _make_v3_db(path):
    """A database exactly as the v3 (pre-trace-context) code left it."""
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE runs (
            run_id      TEXT PRIMARY KEY,
            experiment  TEXT NOT NULL,
            config_hash TEXT NOT NULL,
            created     REAL NOT NULL,
            metrics     TEXT NOT NULL,
            label       TEXT NOT NULL DEFAULT '',
            git_rev     TEXT NOT NULL DEFAULT ''
        );
        CREATE INDEX runs_experiment ON runs (experiment, created);
        CREATE TABLE jobs (
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
        );
        CREATE INDEX jobs_state ON jobs (state, submitted);
        CREATE TABLE worker_metrics (
            worker  TEXT PRIMARY KEY,
            updated REAL NOT NULL,
            payload TEXT NOT NULL
        );
        """
    )
    conn.execute(
        "INSERT INTO jobs (job_id, key, spec, submitted) VALUES (?, ?, ?, ?)",
        ("job-v3", "k" * 64, '{"target": "checksum"}', 100.0),
    )
    conn.execute("PRAGMA user_version = 3")
    conn.commit()
    conn.close()


def test_migrates_v3_schema_to_v4(tmp_path):
    db = tmp_path / "v3.sqlite"
    _make_v3_db(db)
    with RunStore(db) as store:
        # pre-migration job rows read back with an empty trace id
        assert store.get_job("job-v3")["trace_id"] == ""
        # new writes persist the trace context immediately
        store.enqueue_job(
            "job-v4", "n" * 64, {"target": "checksum"},
            trace_id="cafe0123cafe0123",
        )
        assert store.get_job("job-v4")["trace_id"] == "cafe0123cafe0123"
    conn = sqlite3.connect(db)
    assert conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
    conn.close()


def test_trace_id_survives_claim_and_job_for_run(store_path):
    with RunStore(store_path) as store:
        store.enqueue_job(
            "j1", "k" * 64, {"target": "checksum"},
            trace_id="cafe0123cafe0123",
        )
        claimed = store.claim_job("sim-0")
        assert claimed["trace_id"] == "cafe0123cafe0123"
        store.finish_job("j1", "done", run_id="r" * 16)
        row = store.job_for_run("r" * 16)
        assert row["job_id"] == "j1"
        assert row["trace_id"] == "cafe0123cafe0123"


def test_job_for_run_picks_the_newest_job(store_path):
    with RunStore(store_path) as store:
        store.enqueue_job("old", "k1", {}, submitted=100.0, run_id="r" * 16,
                          state="done", trace_id="aaaa1111aaaa1111")
        store.enqueue_job("new", "k2", {}, submitted=200.0, run_id="r" * 16,
                          state="done", trace_id="bbbb2222bbbb2222")
        assert store.job_for_run("r" * 16)["job_id"] == "new"
        assert store.job_for_run("missing-run") is None


def test_file_store_runs_in_wal_mode(tmp_path):
    with RunStore(tmp_path / "wal.sqlite") as store:
        store.record_run("E", "a" * 64, {})
        assert store.journal_mode == "wal"


def test_memory_store_is_refused():
    """Each connection would open a private database of its own."""
    for path in (":memory:", ""):
        with pytest.raises(ConfigurationError, match="private"):
            RunStore(path)


def test_closed_store_raises(store_path):
    store = RunStore(store_path)
    store.close()
    with pytest.raises(ConfigurationError, match="closed"):
        store.count()


# ---------------------------------------------------------------- retention
def test_prune_by_age_drops_old_runs_and_settled_jobs(store_path):
    with RunStore(store_path) as store:
        store.record_run("E", "a" * 64, {}, created=100.0)
        store.record_run("E", "b" * 64, {}, created=1000.0)
        store.enqueue_job("old-done", "k1", {}, state="done",
                         submitted=100.0, finished=100.0)
        store.enqueue_job("old-queued", "k2", {}, submitted=100.0)
        removed = store.prune(max_age_days=1.0, now=500.0 + 86_400)
        assert removed == {
            "removed_runs": 1, "removed_jobs": 1, "kept_runs": 1,
        }
        # queued jobs are never pruned, however old
        assert store.get_job("old-queued")["state"] == "queued"
        assert store.get_job("old-done") is None


def test_prune_by_max_runs_keeps_most_recent(store_path):
    with RunStore(store_path) as store:
        ids = [
            store.record_run("E", hex(i)[2:] * 32, {}, created=float(i))
            for i in range(5)
        ]
        removed = store.prune(max_runs=2)
        assert removed["removed_runs"] == 3
        assert removed["kept_runs"] == 2
        kept = {r["run_id"] for r in store.list_runs()}
        assert kept == {ids[3], ids[4]}


def test_prune_without_limits_is_a_noop(store_path):
    with RunStore(store_path) as store:
        store.record_run("E", "a" * 64, {})
        assert store.prune() == {
            "removed_runs": 0, "removed_jobs": 0, "kept_runs": 1,
        }


# ------------------------------------------------------- durable job queue
def test_enqueue_claim_finish_roundtrip(store_path):
    with RunStore(store_path) as store:
        assert store.enqueue_job("j1", "k" * 64, {"target": "checksum"})
        job = store.get_job("j1")
        assert job["state"] == "queued"
        assert job["spec"] == {"target": "checksum"}
        assert job["cached"] is False

        claimed = store.claim_job("sim-0")
        assert claimed["job_id"] == "j1"
        assert claimed["state"] == "running"
        assert claimed["owner"] == "sim-0"
        assert claimed["started"] is not None

        store.finish_job("j1", "done", run_id="r" * 16)
        finished = store.get_job("j1")
        assert finished["state"] == "done"
        assert finished["run_id"] == "r" * 16
        assert finished["finished"] is not None


def test_claim_is_exclusive_and_oldest_first(store_path):
    with RunStore(store_path) as store:
        store.enqueue_job("late", "k1", {}, submitted=200.0)
        store.enqueue_job("early", "k2", {}, submitted=100.0)
        first = store.claim_job("a")
        second = store.claim_job("b")
        assert first["job_id"] == "early"
        assert second["job_id"] == "late"
        # nothing left to claim: both are running
        assert store.claim_job("c") is None


def test_enqueue_respects_capacity(store_path):
    with RunStore(store_path) as store:
        assert store.enqueue_job("j1", "k1", {}, capacity=2)
        assert store.enqueue_job("j2", "k2", {}, capacity=2)
        assert not store.enqueue_job("j3", "k3", {}, capacity=2)
        assert store.queued_depth() == 2
        # claiming one frees a slot
        store.claim_job("w")
        assert store.enqueue_job("j3", "k3", {}, capacity=2)


def test_failed_job_records_error(store_path):
    with RunStore(store_path) as store:
        store.enqueue_job("j1", "k1", {})
        store.claim_job("w")
        store.finish_job("j1", "failed", error="ValueError: boom")
        assert store.get_job("j1")["error"] == "ValueError: boom"


def test_list_jobs_newest_first(store_path):
    with RunStore(store_path) as store:
        store.enqueue_job("a", "k1", {}, submitted=100.0)
        store.enqueue_job("b", "k2", {}, submitted=200.0)
        assert [j["job_id"] for j in store.list_jobs()] == ["b", "a"]


# ------------------------------------------------------- worker metrics
def test_worker_metrics_roundtrip_and_freshness(store_path):
    with RunStore(store_path) as store:
        store.publish_worker_metrics("api-0", {"m": {"kind": "counter"}})
        store.publish_worker_metrics("api-1", {"m": {"kind": "counter"}})
        snaps = store.worker_metrics()
        assert set(snaps) == {"api-0", "api-1"}
        assert snaps["api-0"] == {"m": {"kind": "counter"}}
        # stale snapshots (older than max_age) are excluded
        assert store.worker_metrics(max_age=0.0) == {}


def test_ghost_workers_expire_by_heartbeat_age(store_path):
    """Regression: a SIGKILLed worker's last snapshot must drop out of the
    merged /metrics view once its heartbeat goes stale, instead of being
    served forever."""
    with RunStore(store_path) as store:
        store.publish_worker_metrics("api-0", {"m": 1}, now=1000.0)
        store.publish_worker_metrics("api-1", {"m": 2}, now=1010.0)
        # both fresh shortly after api-1's heartbeat
        assert set(store.worker_metrics(max_age=15.0, now=1012.0)) == {
            "api-0", "api-1",
        }
        # api-0 died: its snapshot ages past the cutoff, api-1 keeps
        # heartbeating and stays
        store.publish_worker_metrics("api-1", {"m": 2}, now=1020.0)
        assert set(store.worker_metrics(max_age=15.0, now=1022.0)) == {"api-1"}
        # a respawned api-0 reappears on its first publish
        store.publish_worker_metrics("api-0", {"m": 3}, now=1025.0)
        snaps = store.worker_metrics(max_age=15.0, now=1026.0)
        assert snaps["api-0"] == {"m": 3}


def test_clear_worker_metrics(store_path):
    with RunStore(store_path) as store:
        store.publish_worker_metrics("api-0", {})
        store.publish_worker_metrics("sim-0", {})
        store.clear_worker_metrics("api-0")
        assert set(store.worker_metrics()) == {"sim-0"}
        store.clear_worker_metrics()
        assert store.worker_metrics() == {}


# --------------------------------------------------------------- metrics_of
def test_metrics_of_plain_dict_keeps_numbers_only():
    assert metrics_of({"ipc": 1.5, "halted": True, "name": "x"}) == {
        "ipc": 1.5, "halted": 1,
    }


def test_metrics_of_to_dict_object():
    class FakeResult:
        def to_dict(self):
            return {"cycles": 100, "ipc": 2.0, "policy": "steering"}

    assert metrics_of(FakeResult()) == {"cycles": 100, "ipc": 2.0}


def test_run_revision_is_the_code_digest(store_path):
    with RunStore(store_path) as store:
        run_id = store.record_run("E", "c" * 64, {"x": 1})
        assert store.get_run(run_id)["git_rev"] == code_digest()


def test_metrics_of_traced_payload():
    class FakeResult:
        def to_dict(self):
            return {"ipc": 2.0}

    payload = {"result": FakeResult(), "selection_runs": [(0, 0, 5), (2, 5, 1)]}
    assert metrics_of(payload) == {"ipc": 2.0}


def test_metrics_of_opaque_result_is_empty():
    assert metrics_of(["not", "a", "dict"]) == {}
