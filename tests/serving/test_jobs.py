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
    import repro.evaluation.batch as batch_mod

    release = threading.Event()
    started = threading.Event()
    result = run_many([build_job(_SPEC)])[0]

    def blocking_execute_job(job):
        started.set()
        release.wait(30)
        return result

    monkeypatch.setattr(batch_mod, "execute_job", blocking_execute_job)
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
    import repro.evaluation.batch as batch_mod

    def exploding_execute_job(job):
        raise RuntimeError("simulator exploded")

    monkeypatch.setattr(batch_mod, "execute_job", exploding_execute_job)
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


# --------------------------------------------------------------- keyed specs
@pytest.fixture()
def build_calls(monkeypatch):
    """Record every spec ``StoreJobQueue.submit`` builds a job from."""
    import repro.serving.jobs as jobs_mod

    calls = []

    def counting_build_job(spec):
        calls.append(spec)
        return build_job(spec)

    monkeypatch.setattr(jobs_mod, "build_job", counting_build_job)
    return calls


def test_repeated_spec_is_built_and_keyed_once(build_calls):
    queue = StoreJobQueue(RunStore(), capacity=4)
    first = queue.submit(dict(_SPEC))
    again = queue.submit(dict(_SPEC))  # equal spec, a new dict
    assert build_calls == [_SPEC]
    assert first.key == again.key == job_key(build_job(_SPEC))
    assert first.job_id != again.job_id


def test_repeated_spec_answers_from_cache_without_building(build_calls):
    queue = StoreJobQueue(RunStore(), capacity=4)
    spec = dict(_SPEC, label="sweep point")
    queue.submit(spec)
    assert queue.claim_and_run_one()
    del build_calls[:]  # the claim rebuilt the job to run it
    cached = queue.submit(dict(spec))
    assert build_calls == []
    assert cached.cached and cached.state == "done"
    run = queue.store.get_run(cached.run_id)
    assert run["experiment"] == "job/steering"
    assert run["label"] == "sweep point"


@pytest.mark.parametrize("change", [
    {"params": {"reconfig_latency": 4}},
    {"kwargs": {"use_exact_metric": True}},
    {"label": "other"},
    {"max_cycles": 40_000},
    {"factory": "ffu-only"},
])
def test_spec_that_differs_gets_its_own_key(build_calls, change):
    queue = StoreJobQueue(RunStore(), capacity=4)
    base = queue.submit(dict(_SPEC))
    variant = dict(_SPEC, **change)
    other = queue.submit(variant)
    assert build_calls == [_SPEC, variant]
    assert other.key == job_key(build_job(variant))
    if "label" in change:  # the label is not part of the question
        assert other.key == base.key
    else:
        assert other.key != base.key


def test_malformed_spec_is_rejected_every_time(build_calls):
    from repro.serving.app import ServingApp

    store = RunStore()
    app = ServingApp(store, jobs=StoreJobQueue(store, capacity=2))
    body = b'{"target": "checksum", "max_cycles": 0}'
    for _ in range(2):
        status, _, _ = app.handle("POST", "/api/jobs", body=body)
        assert status == 400
    assert len(build_calls) == 2  # never stored, so validated again
    assert store.list_jobs() == []


def test_spec_without_canonical_form_takes_the_building_path(build_calls):
    queue = StoreJobQueue(RunStore(), capacity=2)
    spec = dict(_SPEC, kwargs={"smoothing": float("nan")})
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="non-finite"):
            queue.submit(spec)
    assert len(build_calls) == 2
    assert queue.depth() == 0


def test_keyed_specs_are_bounded(build_calls, monkeypatch):
    import repro.serving.jobs as jobs_mod

    monkeypatch.setattr(jobs_mod, "KEYED_SPECS", 2)
    queue = StoreJobQueue(RunStore(), capacity=8)
    specs = [dict(_SPEC, label=f"p{i}") for i in range(3)]
    for spec in specs + specs[2:]:
        queue.submit(spec)
    assert build_calls == specs  # the third spec found a cleared map
    assert len(queue._keyed_specs) == 1
    queue.submit(specs[0])
    assert build_calls == specs + specs[:1]
