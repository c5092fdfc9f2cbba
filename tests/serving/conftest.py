"""Serving fixtures: job queues and apps built the way the worker mains
build them (:func:`repro.serving.supervisor.worker_queue`)."""

import threading

import pytest

from repro.serving.app import ServingApp
from repro.serving.supervisor import worker_queue


@pytest.fixture()
def store_path(tmp_path):
    """The run store file every worker of one test opens."""
    return str(tmp_path / "runs.sqlite")


@pytest.fixture()
def make_queue(store_path):
    """``make_queue(name="api-0", capacity=8, cache_dir=None)``: the job
    queue of worker ``name`` over the test's store file.  Every queue of
    a test shares the store, its event-log sink and one doorbell, as the
    workers of one supervisor do."""
    doorbell = threading.Semaphore(0)
    made = []

    def make(name="api-0", capacity=8, cache_dir=None):
        jobs = worker_queue(name, store_path, cache_dir, capacity, doorbell)
        made.append(jobs)
        return jobs

    yield make
    for jobs in made:
        jobs.events.close()
        jobs.store.close()


@pytest.fixture()
def make_app(make_queue):
    """``make_app(name="api-0", ...)``: an API worker's app over
    ``make_queue(name, ...)``."""

    def make(name="api-0", **kwargs):
        return ServingApp(make_queue(name, **kwargs))

    return make

