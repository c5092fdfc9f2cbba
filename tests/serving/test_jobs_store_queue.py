"""Tests for the durable, store-backed job queue (StoreJobQueue)."""

import pytest

from repro.evaluation.batch import ResultCache
from repro.serving.jobs import JobQueueFull, StoreJobQueue
from repro.serving.store import RunStore
from repro.telemetry import MetricsRegistry

SPEC = {"target": "checksum", "max_cycles": 5_000}


@pytest.fixture()
def store():
    with RunStore() as s:
        yield s


def _queue(store, **kwargs):
    kwargs.setdefault("cache", ResultCache())
    return StoreJobQueue(store, **kwargs)


def test_submit_enqueues_durably(store):
    q = _queue(store)
    record = q.submit(SPEC)
    assert record.state == "queued"
    assert record.job_id.startswith("job-")
    # visible through the store itself, not just this queue object
    assert store.get_job(record.job_id)["spec"] == SPEC
    assert q.depth() == 1


def test_claim_and_run_one_executes_and_registers(store):
    q = _queue(store)
    record = q.submit(SPEC)
    assert q.claim_and_run_one() is True
    done = q.get(record.job_id)
    assert done.state == "done"
    assert done.run_id is not None
    assert store.get_run(done.run_id)["experiment"] == "job/steering"
    assert q.executed == 1
    # queue drained: nothing left to claim
    assert q.claim_and_run_one() is False


def test_cached_submission_settles_immediately(store):
    q = _queue(store)
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


def test_capacity_rejection(store):
    q = _queue(store, capacity=2)
    q.submit(SPEC)
    q.submit({**SPEC, "max_cycles": 6_000})
    with pytest.raises(JobQueueFull, match="queue full"):
        q.submit({**SPEC, "max_cycles": 7_000})


def test_invalid_claimed_spec_fails_the_job(store):
    # a spec that validates nowhere: enqueued directly (as if by an API
    # worker running different code), the claimer must fail it cleanly
    store.enqueue_job("job-bad", "key-bad", {"target": "no-such-kernel"})
    q = _queue(store)
    assert q.claim_and_run_one() is True
    failed = q.get("job-bad")
    assert failed.state == "failed"
    assert failed.error


def test_two_queue_instances_share_the_backlog(store):
    api = _queue(store, owner="api-0")
    sim = _queue(store, owner="sim-0", cache=api.cache)
    record = api.submit(SPEC)
    # the *other* worker claims and executes it
    assert sim.claim_and_run_one() is True
    assert api.get(record.job_id).state == "done"
    assert store.get_job(record.job_id)["owner"] == "sim-0"
    assert sim.executed == 1 and api.executed == 0


def test_in_process_drain_thread(store):
    q = _queue(store)
    q.start()
    try:
        record = q.submit(SPEC)
        settled = q.wait(record.job_id, timeout=60)
        assert settled.state == "done"
    finally:
        q.stop()
    assert not q._thread.is_alive()


def test_submission_metrics(store):
    registry = MetricsRegistry()
    q = _queue(store, capacity=1, registry=registry)
    q.submit(SPEC)
    with pytest.raises(JobQueueFull):
        q.submit({**SPEC, "max_cycles": 6_000})
    q.claim_and_run_one()
    q.submit(SPEC)  # cache hit now
    counter = registry.get("repro_jobs_submitted_total")
    outcomes = {
        labels[0]: child.value for labels, child in counter._children.items()
    }
    assert outcomes == {"accepted": 1.0, "rejected": 1.0, "cached": 1.0}
    assert registry.get("repro_job_run_seconds").count == 1
    assert registry.get("repro_job_queue_wait_seconds").count == 1


def test_list_and_depth(store):
    q = _queue(store)
    a = q.submit(SPEC)
    b = q.submit({**SPEC, "max_cycles": 6_000})
    assert {r.job_id for r in q.list()} == {a.job_id, b.job_id}
    assert q.depth() == 2
