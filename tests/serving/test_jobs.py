"""Tests for job specs, the durable job queue and its backpressure."""

import json
import threading

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.evaluation.batch import job_key, run_many
from repro.serving.jobs import (
    MAX_SUBMITTED_CYCLES,
    JobQueueFull,
    build_job,
    resolve_program,
)

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


@pytest.mark.parametrize(
    "target", ["mix", "mix:int:abc", "mix:int:10:3:9", "phased:x", "phased:1:2"]
)
def test_resolve_rejects_malformed_targets(target):
    with pytest.raises(WorkloadError, match="mix|phased"):
        resolve_program(target)


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


@pytest.mark.parametrize("spec", [
    {"factory": "steering", "kwargs": {"use_exat_metric": True}},
    {"factory": "steering", "kwargs": {"use_exact_metric": True}},
    {"factory": "random", "kwargs": {"perod": 100}},
    {"factory": "static"},
    {"factory": "static", "kwargs": {"config": "integer"}},
    {"factory": "steering-basis"},
    {"factory": "reference", "kwargs": {"dmem_size": 8_000_000_000}},
    {"factory": "reference", "kwargs": {"entry": "loop"}},
    {"factory": "reference", "kwargs": {"max_instructions": 8_000_000_000}},
    {"factory": "reference", "kwargs": {"max_instructions": 0}},
    {"factory": "oracle", "kwargs": {"max_instructions": 8_000_000_000}},
    {"factory": "random", "kwargs": {"period": "abc"}},
    {"factory": "demand", "kwargs": {"smoothing": True}},
    {"params": {"dmem_size": 8_000_000_000}},
    {"params": {"predictor_entries": 1 << 30}},
    {"params": {"window_size": 100_000}},
    {"params": {"dmem_size": 8e9}},
    {"params": {"window_size": 7.5}},
    {"params": {"n_slots": True}},
])
def test_spec_that_can_never_run_is_refused_at_submit(make_app, spec):
    app = make_app(capacity=2)
    body = json.dumps({"target": "checksum", **spec}).encode()
    status, _, payload = app.handle("POST", "/api/jobs", body=body)
    assert status == 400, payload
    assert app.store.list_jobs() == []


def test_params_up_to_sixteen_times_their_default_are_accepted():
    job = build_job({"target": "checksum", "params": {
        "reconfig_latency": 256, "window_size": 16 * 7, "dmem_size": 16 << 20,
    }})
    assert job.params.reconfig_latency == 256
    with pytest.raises(ConfigurationError, match="reconfig_latency"):
        build_job({"target": "checksum", "params": {"reconfig_latency": 257}})


@pytest.mark.parametrize("factory,kwargs,message", [
    ("random", {"period": 0}, "period must be at least 1"),
    ("oracle", {"lookahead": 0}, "lookahead must be at least 1"),
    ("oracle", {"lookahead": -1}, "lookahead must be at least 1"),
])
def test_out_of_range_policy_argument_fails_the_job(
    make_queue, factory, kwargs, message
):
    queue = make_queue(capacity=2)
    record = queue.submit(
        {"target": "checksum", "factory": factory, "kwargs": kwargs}
    )
    assert queue.claim_and_run_one()
    settled = queue.get(record.job_id)
    assert settled.state == "failed"
    assert message in settled.error


def test_factory_arguments_reach_the_job():
    job = build_job({"target": "checksum", "factory": "random",
                     "kwargs": {"period": 100}})
    assert job.kwargs == {"period": 100}


# ------------------------------------------------------------ StoreJobQueue
def test_submit_runs_job_and_registers_run(make_queue):
    queue = make_queue(capacity=4)
    record = queue.submit(dict(_SPEC))
    assert record.state == "queued"
    assert queue.claim_and_run_one()
    settled = queue.get(record.job_id)
    assert settled.state == "done"
    assert not settled.cached
    assert queue.executed == 1
    run = queue.store.get_run(settled.run_id)
    assert run["experiment"] == "job/steering"
    assert run["metrics"]["ipc"] > 0


def test_cached_submission_answers_without_simulating(make_queue):
    queue = make_queue(capacity=4)
    seeded = run_many([build_job(_SPEC)], cache=queue.cache)
    assert seeded[0].halted
    record = queue.submit(dict(_SPEC))
    assert record.state == "done"
    assert record.cached
    assert record.run_id is not None
    assert queue.executed == 0


def test_backpressure_raises_jobqueuefull(make_queue, monkeypatch):
    import repro.evaluation.batch as batch_mod

    release = threading.Event()
    started = threading.Event()
    result = run_many([build_job(_SPEC)])[0]

    def blocking_execute_job(job):
        started.set()
        release.wait(30)
        return result

    monkeypatch.setattr(batch_mod, "execute_job", blocking_execute_job)
    api = make_queue("api-0", capacity=1)
    sim = make_queue("sim-0", capacity=1)
    runner = threading.Thread(target=sim.claim_and_run_one)
    try:
        specs = [dict(_SPEC, label=f"j{i}") for i in range(3)]
        first = api.submit(specs[0])
        runner.start()  # the sim worker claims it and blocks in the run
        assert started.wait(10)
        api.submit(specs[1])  # occupies the single queue slot
        with pytest.raises(JobQueueFull):
            api.submit(specs[2])
    finally:
        release.set()
        runner.join(10)
    assert api.get(first.job_id).state == "done"


def test_failed_job_reports_error(make_queue, monkeypatch):
    import repro.evaluation.batch as batch_mod

    def exploding_execute_job(job):
        raise RuntimeError("simulator exploded")

    monkeypatch.setattr(batch_mod, "execute_job", exploding_execute_job)
    queue = make_queue(capacity=2)
    record = queue.submit(dict(_SPEC))
    assert queue.claim_and_run_one()
    settled = queue.get(record.job_id)
    assert settled.state == "failed"
    assert "simulator exploded" in settled.error


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


def test_repeated_spec_is_built_and_keyed_once(make_queue, build_calls):
    queue = make_queue(capacity=4)
    first = queue.submit(dict(_SPEC))
    again = queue.submit(dict(_SPEC))  # equal spec, a new dict
    assert build_calls == [_SPEC]
    assert first.key == again.key == job_key(build_job(_SPEC))
    assert first.job_id != again.job_id


def test_repeated_spec_answers_from_cache_without_building(make_queue, build_calls):
    queue = make_queue(capacity=4)
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
    {"params": {"reconfig_latency": 8, "use_exact_metric": True}},
    {"label": "other"},
    {"max_cycles": 40_000},
    {"factory": "ffu-only"},
])
def test_spec_that_differs_gets_its_own_key(make_queue, build_calls, change):
    queue = make_queue(capacity=4)
    base = queue.submit(dict(_SPEC))
    variant = dict(_SPEC, **change)
    other = queue.submit(variant)
    assert build_calls == [_SPEC, variant]
    assert other.key == job_key(build_job(variant))
    if "label" in change:  # the label is not part of the question
        assert other.key == base.key
    else:
        assert other.key != base.key


def test_malformed_spec_is_rejected_every_time(make_app, build_calls):
    app = make_app(capacity=2)
    body = b'{"target": "checksum", "max_cycles": 0}'
    for _ in range(2):
        status, _, _ = app.handle("POST", "/api/jobs", body=body)
        assert status == 400
    assert len(build_calls) == 2  # never stored, so validated again
    assert app.store.list_jobs() == []


def test_spec_without_canonical_form_takes_the_building_path(make_queue, build_calls):
    queue = make_queue(capacity=2)
    spec = dict(_SPEC, factory="demand", kwargs={"smoothing": float("nan")})
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="non-finite"):
            queue.submit(spec)
    assert len(build_calls) == 2
    assert queue.depth() == 0


def test_keyed_specs_are_bounded(make_queue, build_calls, monkeypatch):
    import repro.serving.jobs as jobs_mod

    monkeypatch.setattr(jobs_mod, "KEYED_SPECS", 2)
    queue = make_queue(capacity=8)
    specs = [dict(_SPEC, label=f"p{i}") for i in range(3)]
    for spec in specs + specs[2:]:
        queue.submit(spec)
    assert build_calls == specs  # the third spec found a cleared map
    assert len(queue._keyed_specs) == 1
    queue.submit(specs[0])
    assert build_calls == specs + specs[:1]
