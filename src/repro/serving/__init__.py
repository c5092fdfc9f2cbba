"""Experiment results service: run store, HTTP API and dashboard.

Three layers over the report pipeline:

* :mod:`repro.serving.store` — :class:`RunStore`, a SQLite index of every
  experiment/benchmark run (id, experiment, content hash, git rev,
  timestamp, flat metrics JSON), with the heavyweight result artifacts
  staying in the content-addressed ``.report-cache`` blobs;
* :mod:`repro.serving.jobs` — :class:`StoreJobQueue`, a durable bounded
  queue in the store's ``jobs`` table that executes HTTP-submitted
  simulation jobs through the batch engine (cache hits answer without
  simulating); an enqueue rings a doorbell semaphore that wakes an idle
  simulation worker;
* :mod:`repro.serving.app` — a threaded :mod:`http.server`-based JSON
  API plus the self-contained dashboard page served at ``/``.

``python -m repro serve`` runs them under :mod:`repro.serving.supervisor`:
N API worker processes accepting on one inherited listening socket, and
M simulation worker processes that run every submitted job.
"""

from repro.serving.app import ServingApp, make_server
from repro.serving.jobs import JobQueueFull, StoreJobQueue, build_job
from repro.serving.store import RunStore, metrics_of

__all__ = [
    "RunStore",
    "ServingApp",
    "JobQueueFull",
    "StoreJobQueue",
    "build_job",
    "make_server",
    "metrics_of",
]
