"""Tests for the durable, store-backed job queue (StoreJobQueue)."""

import threading
import time

import pytest

from repro.serving.jobs import JobQueueFull
from repro.serving.store import RunStore

SPEC = {"target": "checksum", "max_cycles": 5_000}


@pytest.fixture()
def store(store_path):
    """The test's own connection to the store the queues share."""
    with RunStore(store_path) as s:
        yield s


def test_submit_enqueues_durably(make_queue, store):
    q = make_queue()
    record = q.submit(SPEC)
    assert record.state == "queued"
    assert record.job_id.startswith("job-")
    # visible through the store itself, not just this queue object
    assert store.get_job(record.job_id)["spec"] == SPEC
    assert q.depth() == 1


def test_claim_and_run_one_executes_and_registers(make_queue, store):
    q = make_queue()
    record = q.submit(SPEC)
    assert q.claim_and_run_one() is True
    done = q.get(record.job_id)
    assert done.state == "done"
    assert done.run_id is not None
    assert store.get_run(done.run_id)["experiment"] == "job/steering"
    assert q.executed == 1
    # queue drained: nothing left to claim
    assert q.claim_and_run_one() is False


def test_cached_submission_settles_immediately(make_queue, store):
    q = make_queue()
    first = q.submit(SPEC)
    assert q.claim_and_run_one()
    again = q.submit(SPEC)
    assert again.state == "done"
    assert again.cached is True
    assert again.run_id is not None
    assert again.job_id != first.job_id
    # the settled row is durable too (cross-worker /api/jobs visibility)
    assert store.get_job(again.job_id)["cached"] is True
    assert q.depth() == 0


def test_capacity_rejection(make_queue):
    q = make_queue(capacity=2)
    q.submit(SPEC)
    q.submit({**SPEC, "max_cycles": 6_000})
    with pytest.raises(JobQueueFull, match="queue full"):
        q.submit({**SPEC, "max_cycles": 7_000})


def test_invalid_claimed_spec_fails_the_job(make_queue, store):
    # a spec that validates nowhere: enqueued directly (as if by an API
    # worker running different code), the claimer must fail it cleanly
    store.enqueue_job("job-bad", "key-bad", {"target": "no-such-kernel"})
    q = make_queue()
    assert q.claim_and_run_one() is True
    failed = q.get("job-bad")
    assert failed.state == "failed"
    assert failed.error


def test_two_queue_instances_share_the_backlog(make_queue, store, tmp_path):
    api = make_queue("api-0", cache_dir=str(tmp_path / "cache"))
    sim = make_queue("sim-0", cache_dir=str(tmp_path / "cache"))
    record = api.submit(SPEC)
    # the *other* worker claims and executes it
    assert sim.claim_and_run_one() is True
    assert api.get(record.job_id).state == "done"
    assert store.get_job(record.job_id)["owner"] == "sim-0"
    assert sim.executed == 1 and api.executed == 0


def test_drain_runs_each_job_under_its_stored_key(make_queue, tmp_path, monkeypatch):
    from repro.evaluation import batch
    from repro.serving import jobs

    api = make_queue("api-0", cache_dir=str(tmp_path / "cache"))
    sim = make_queue("sim-0", cache_dir=str(tmp_path / "cache"))
    records = [api.submit({**SPEC, "max_cycles": 5_000 + i}) for i in range(3)]
    calls = []

    def counted(job):
        calls.append(job.label)
        return real(job)

    real = batch.job_key
    monkeypatch.setattr(batch, "job_key", counted)
    monkeypatch.setattr(jobs, "job_key", counted)
    while sim.claim_and_run_one():
        pass
    # the API worker keyed each spec once; the drain keys nothing again
    assert calls == []
    assert sim.executed == 3
    for record in records:
        assert api.cache.has(record.key)
        assert api.get(record.job_id).state == "done"


def test_executed_counts_simulations_not_cache_answers(make_queue):
    q = make_queue()
    # two rows of one spec queued before either runs: the second claim
    # finds the first one's result in the cache
    first, second = q.submit(SPEC), q.submit(SPEC)
    assert first.key == second.key and second.state == "queued"
    while q.claim_and_run_one():
        pass
    assert q.executed == 1
    assert q.get(first.job_id).run_id == q.get(second.job_id).run_id


def test_in_process_drain_thread(make_queue):
    """The sim worker's loop, on a thread of this process: it runs what
    another worker submits and returns once stopped."""
    api, sim = make_queue("api-0"), make_queue("sim-0")
    heartbeats = []
    loop = threading.Thread(
        target=sim.drain_until_stopped, args=(lambda: heartbeats.append(1),)
    )
    loop.start()
    try:
        record = api.submit(SPEC)
        deadline = time.monotonic() + 60
        while api.get(record.job_id).state not in ("done", "failed"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert api.get(record.job_id).state == "done"
    finally:
        sim.stop()
        loop.join(10)
    assert not loop.is_alive()
    assert sim.executed == 1 and heartbeats


def test_submission_metrics(make_queue):
    q = make_queue(capacity=1)
    q.submit(SPEC)
    with pytest.raises(JobQueueFull):
        q.submit({**SPEC, "max_cycles": 6_000})
    q.claim_and_run_one()
    q.submit(SPEC)  # cache hit now
    snapshot = q.registry.snapshot()
    outcomes = {
        s["labels"][0]: s["value"]
        for s in snapshot["repro_jobs_submitted_total"]["series"]
    }
    assert outcomes == {"accepted": 1.0, "rejected": 1.0, "cached": 1.0}
    for name in ("repro_job_run_seconds", "repro_job_queue_wait_seconds"):
        [series] = snapshot[name]["series"]
        assert sum(series["counts"]) == 1


def test_list_and_depth(make_queue):
    q = make_queue()
    a = q.submit(SPEC)
    b = q.submit({**SPEC, "max_cycles": 6_000})
    assert {r.job_id for r in q.list()} == {a.job_id, b.job_id}
    assert q.depth() == 2
