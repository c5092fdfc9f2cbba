"""Tests for job specs, the durable job queue and its backpressure."""

import threading

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.evaluation.batch import ResultCache, job_key, run_many
from repro.serving.jobs import (
    MAX_SUBMITTED_CYCLES,
    JobQueueFull,
    StoreJobQueue,
    build_job,
    resolve_program,
)
from repro.serving.store import RunStore

_SPEC = {
    "factory": "steering",
    "target": "checksum",
    "params": {"reconfig_latency": 8},
    "max_cycles": 50_000,
}


# ------------------------------------------------------------------- targets
def test_resolve_kernel_and_synthetic_targets():
    assert len(resolve_program("checksum").instructions) > 0
    assert len(resolve_program("mix:int:10:3").instructions) > 0
    assert len(resolve_program("phased:2").instructions) > 0


def test_resolve_never_reads_files(tmp_path):
    path = tmp_path / "evil.s"
    path.write_text("halt\n")
    with pytest.raises(WorkloadError):
        resolve_program(str(path))
    with pytest.raises(WorkloadError):
        resolve_program("mix:nosuch")


# ------------------------------------------------------------------ build_job
def test_build_job_happy_path():
    job = build_job(_SPEC)
    assert job.factory == "steering"
    assert job.params.reconfig_latency == 8
    assert job.max_cycles == 50_000
    assert job.label == "checksum"


def test_build_job_rejects_malformed_specs():
    with pytest.raises(ConfigurationError):
        build_job("not a dict")
    with pytest.raises(ConfigurationError):
        build_job({})  # no target
    with pytest.raises(ConfigurationError):
        build_job({"target": "checksum", "params": {"nosuch_param": 1}})
    with pytest.raises(ConfigurationError):
        build_job({"target": "checksum", "max_cycles": 0})
    with pytest.raises(ConfigurationError):
        build_job({"target": "checksum",
                   "max_cycles": MAX_SUBMITTED_CYCLES + 1})
    with pytest.raises(ConfigurationError):
        build_job({"target": "checksum", "kwargs": {"x": [1, 2]}})
    with pytest.raises(ConfigurationError):
        build_job({"target": "checksum", "factory": "no-such-factory"})


# ------------------------------------------------------------ StoreJobQueue
def test_submit_runs_job_and_registers_run():
    store = RunStore()
    queue = StoreJobQueue(store, capacity=4)
    queue.start()
    try:
        record = queue.submit(dict(_SPEC))
        assert record.state in ("queued", "running")
        settled = queue.wait(record.job_id, timeout=60)
        assert settled.state == "done"
        assert not settled.cached
        assert queue.executed == 1
        run = store.get_run(settled.run_id)
        assert run["experiment"] == "job/steering"
        assert run["metrics"]["ipc"] > 0
    finally:
        queue.stop()
        store.close()


def test_cached_submission_answers_without_simulating():
    cache = ResultCache()
    seeded = run_many([build_job(_SPEC)], cache=cache)
    assert seeded[0].halted
    queue = StoreJobQueue(RunStore(), cache=cache, capacity=4)
    record = queue.submit(dict(_SPEC))
    assert record.state == "done"
    assert record.cached
    assert record.run_id is not None
    assert queue.executed == 0


def test_backpressure_raises_jobqueuefull(monkeypatch):
    import repro.serving.jobs as jobs_mod

    release = threading.Event()
    started = threading.Event()
    result = run_many([build_job(_SPEC)])[0]

    def blocking_run_many(jobs, workers=0, cache=None, **kw):
        started.set()
        release.wait(30)
        return [result for _ in jobs]

    monkeypatch.setattr(jobs_mod, "run_many", blocking_run_many)
    queue = StoreJobQueue(RunStore(), capacity=1)
    queue.start()
    try:
        specs = [dict(_SPEC, label=f"j{i}") for i in range(3)]
        first = queue.submit(specs[0])  # drained immediately, blocks
        assert started.wait(10)
        queue.submit(specs[1])  # occupies the single queue slot
        with pytest.raises(JobQueueFull):
            queue.submit(specs[2])
        release.set()
        assert queue.wait(first.job_id, timeout=10).state == "done"
    finally:
        release.set()
        queue.stop()


def test_failed_job_reports_error(monkeypatch):
    import repro.serving.jobs as jobs_mod

    def exploding_run_many(jobs, workers=0, cache=None, **kw):
        raise RuntimeError("simulator exploded")

    monkeypatch.setattr(jobs_mod, "run_many", exploding_run_many)
    queue = StoreJobQueue(RunStore(), capacity=2)
    queue.start()
    try:
        record = queue.submit(dict(_SPEC))
        settled = queue.wait(record.job_id, timeout=10)
        assert settled.state == "failed"
        assert "simulator exploded" in settled.error
    finally:
        queue.stop()


def test_label_excluded_from_content_key():
    a = build_job(dict(_SPEC, label="one"))
    b = build_job(dict(_SPEC, label="two"))
    assert job_key(a) == job_key(b)
