"""Durable job queue: HTTP-submitted simulations through the batch engine.

The API accepts a *job spec* — plain JSON naming a factory, a workload
target and parameter overrides — which :func:`build_job` turns into a
:class:`~repro.evaluation.batch.SimJob`.  Submissions whose content key
is already answerable from the result cache complete immediately without
simulating; everything else goes into :class:`StoreJobQueue`, a bounded
queue that lives in the run store's ``jobs`` table and is drained
through the same result cache as the report pipeline.  A full queue
rejects the submission — backpressure surfaces as HTTP 503 rather than
unbounded growth.

Any API worker process can enqueue and any simulation pool worker can
drain (atomic claim-by-update in SQLite), which is how ``repro serve``
fans submitted work out across processes (see
:mod:`repro.serving.supervisor`); API workers only enqueue.

Wake-up path: every accepted enqueue rings a *doorbell* — a semaphore
shared by all the processes that enqueue and drain (under the
supervisor, one fork-inherited ``multiprocessing.Semaphore``).  An idle
drain loop blocks on it, so a fresh job is claimed as soon as it is
committed rather than at the next poll.  The wait times out after
:data:`HEARTBEAT_SECONDS`, which covers jobs enqueued by a process that
does not share the doorbell; a stale ring costs one empty claim.

Job specs (all fields except ``target`` optional)::

    {
      "factory": "random",            # a FACTORY_NAMES entry with no
                                      # required argument
      "target": "checksum",           # kernel name, "mix:int:40:7", "phased:3"
      "params": {"reconfig_latency": 8, "window_size": 7},
      "max_cycles": 400000,
      "kwargs": {"period": 100},      # the factory's own arguments
      "label": "my sweep point"
    }

A spec that can never run is refused at submit (HTTP 400): an unknown
factory, parameter or factory argument, an argument whose type is not
that of its builder's default, and a factory with a required argument
(``static`` and ``steering-basis``, whose arguments are
:class:`~repro.fabric.configuration.Configuration` objects that JSON
cannot express).  So is a budget above the cap, in cycles
(``max_cycles``) or in instructions (a ``max_instructions`` argument).
Targets resolve through
:func:`repro.workloads.resolve_program`, only to built-in kernels and
seeded synthetic programs — never to filesystem paths (the server must
not read arbitrary files).
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple

from repro.core.params import ProcessorParams
from repro.errors import ConfigurationError
from repro.evaluation import batch
# run_many is not called here; it stays bound because tools that wrap the
# batch engine per module (perfbench/tracing.py) look the name up here
from repro.evaluation.batch import ResultCache, SimJob, job_key, run_many  # noqa: F401
from repro.telemetry import MetricsRegistry
from repro.utils.canonical import canonical_dumps
from repro.workloads import resolve_program

__all__ = [
    "HEARTBEAT_SECONDS",
    "JobQueueFull",
    "JobRecord",
    "StoreJobQueue",
    "build_job",
    "resolve_program",
]

#: an idle drain loop waits at most this long for the doorbell, and every
#: worker republishes its metrics snapshot at least this often, even when
#: idle, so ``RunStore.worker_metrics`` can age out snapshots whose
#: worker died (the /metrics ghost-entry fix).
HEARTBEAT_SECONDS = 2.0

#: upper bound on a submitted job's cycle budget, and on the instruction
#: budget (``max_instructions``) of a submitted reference or oracle run
#: (DoS guard).
MAX_SUBMITTED_CYCLES = 2_000_000

#: how many keyed specs one queue remembers (see
#: :meth:`StoreJobQueue.submit`); the map is emptied when it is full.
KEYED_SPECS = 2048

_PARAM_FIELDS = {f.name for f in fields(ProcessorParams)}

#: a submitted integer processor parameter may be at most this many times
#: its default (a sizing guard: ``dmem_size``, ``predictor_entries`` and
#: ``window_size`` size allocations in the sim worker).
MAX_PARAM_SCALE = 16

#: integer processor parameter -> the largest value a submitted job may
#: set (a float or a bool there is refused too).
_PARAM_BOUNDS = {
    f.name: MAX_PARAM_SCALE * f.default
    for f in fields(ProcessorParams)
    if type(f.default) is int
}


class JobQueueFull(ConfigurationError):
    """The bounded submission queue is at capacity (HTTP 503)."""


def build_job(spec: Any) -> SimJob:
    """Validate a JSON job spec and build the SimJob it describes.

    Raises :class:`ConfigurationError` / :class:`WorkloadError` on any
    malformed field (the API layer maps those to HTTP 400).
    """
    if not isinstance(spec, dict):
        raise ConfigurationError("job spec must be a JSON object")
    target = spec.get("target")
    if not isinstance(target, str) or not target:
        raise ConfigurationError("job spec needs a 'target' workload name")
    factory = spec.get("factory", "steering")
    if not isinstance(factory, str):
        raise ConfigurationError("'factory' must be a string")
    if batch.REQUIRED in batch.FACTORY_ARGUMENTS.get(factory, {}).values():
        raise ConfigurationError(
            f"factory {factory!r} has a required argument, which a JSON spec "
            "cannot express"
        )

    params_spec = spec.get("params") or {}
    if not isinstance(params_spec, dict):
        raise ConfigurationError("'params' must be an object")
    unknown = set(params_spec) - _PARAM_FIELDS
    if unknown:
        raise ConfigurationError(
            f"unknown processor parameters: {', '.join(sorted(unknown))}"
        )
    for name, bound in _PARAM_BOUNDS.items():
        value = params_spec.get(name, 0)
        if type(value) is not int or value > bound:
            raise ConfigurationError(
                f"'params.{name}' must be an integer of at most {bound} "
                f"({MAX_PARAM_SCALE}x its default)"
            )
    params = ProcessorParams(**params_spec)

    try:
        max_cycles = int(spec.get("max_cycles", 400_000))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad 'max_cycles': {exc}") from exc
    if not 1 <= max_cycles <= MAX_SUBMITTED_CYCLES:
        raise ConfigurationError(
            f"'max_cycles' must be in [1, {MAX_SUBMITTED_CYCLES}]"
        )

    kwargs = spec.get("kwargs") or {}
    if not isinstance(kwargs, dict):
        raise ConfigurationError("'kwargs' must be an object")

    label = spec.get("label", "")
    if not isinstance(label, str):
        raise ConfigurationError("'label' must be a string")

    job = SimJob(
        factory,
        resolve_program(target),
        params,
        max_cycles=max_cycles,
        kwargs=dict(kwargs),
        label=(label or target)[:200],
    )
    if not 1 <= job.kwargs.get("max_instructions", 1) <= MAX_SUBMITTED_CYCLES:
        raise ConfigurationError(
            f"'max_instructions' must be in [1, {MAX_SUBMITTED_CYCLES}]"
        )
    return job


class _Keyed(NamedTuple):
    """What a submitted spec resolves to, short of its program.

    Enough to answer the spec from the cache and to register that answer:
    ``RunStore.record_result`` reads ``factory`` and ``label`` off the
    job it is handed.
    """

    key: str
    factory: str
    label: str


@dataclass
class JobRecord:
    """Lifecycle of one submitted job (what the API reports back)."""

    job_id: str
    key: str
    spec: dict
    state: str = "queued"  # queued | running | done | failed
    cached: bool = False
    submitted: float = field(default_factory=time.time)
    #: when a worker claimed the job (None while queued/cached).
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    #: run-store id once the result is registered.
    run_id: str | None = None
    #: trace-context id minted at HTTP ingress ("" when not traced).
    trace_id: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "key": self.key,
            "state": self.state,
            "cached": self.cached,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "run_id": self.run_id,
            "trace_id": self.trace_id,
            "spec": self.spec,
        }


class StoreJobQueue:
    """Durable bounded job queue over the run store's ``jobs`` table.

    The queue lives in SQLite: every API worker process sees every
    submission, and the backlog survives restarts.  Draining happens
    wherever :meth:`drain_until_stopped` runs — in ``repro serve`` the
    dedicated simulation worker processes (each claim is an atomic
    ``queued -> running`` update, so a job runs exactly once); the
    in-process :meth:`start` thread serves tests that embed a queue.

    ``capacity`` bounds the *queued* backlog across all workers; a full
    queue raises :class:`JobQueueFull` (HTTP 503 + ``Retry-After``).
    ``doorbell`` is the semaphore :meth:`submit` releases after each
    accepted enqueue and an idle drain loop acquires; pass the same one
    to every queue that should wake each other (the supervisor shares a
    ``multiprocessing.Semaphore``).  By default the queue gets its own
    ``threading.Semaphore``, which wakes its own :meth:`start` thread
    (an embedded queue in one process).
    """

    def __init__(
        self,
        store: Any,
        cache: ResultCache | None = None,
        capacity: int = 8,
        registry: MetricsRegistry | None = None,
        owner: str | None = None,
        events: Any | None = None,
        doorbell: Any | None = None,
    ) -> None:
        self.store = store
        self.cache = cache if cache is not None else ResultCache()
        self.capacity = capacity
        self.owner = owner or f"worker-{secrets.token_hex(3)}"
        #: optional :class:`~repro.telemetry.events.EventLog`; job
        #: lifecycle transitions are emitted with the job's trace id.
        self.events = events
        self.doorbell = (
            doorbell if doorbell is not None else threading.Semaphore(0)
        )
        #: canonical spec JSON -> its :class:`_Keyed` (see :meth:`_keyed`).
        self._keyed_specs: dict[str, _Keyed] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: simulations actually dispatched by THIS worker (cache answers
        #: and jobs drained elsewhere excluded).
        self.executed = 0
        reg = registry if registry is not None else MetricsRegistry()
        self._submissions = reg.counter(
            "repro_jobs_submitted_total",
            "Job submissions, by outcome.",
            ("outcome",),
        )
        self._queue_wait = reg.histogram(
            "repro_job_queue_wait_seconds",
            "Seconds a submitted job waited before a pool worker ran it.",
        )
        self._run_seconds = reg.histogram(
            "repro_job_run_seconds",
            "Wall-clock seconds executing one submitted job.",
        )

    # ---------------------------------------------------------- submission
    @staticmethod
    def _new_job_id() -> str:
        # random, not sequential: ids must not collide across API workers
        return f"job-{secrets.token_hex(6)}"

    def _keyed(self, spec: Any) -> _Keyed:
        """Build and key ``spec``, or recall the key of an equal spec.

        The map is keyed by the spec's canonical JSON, the form the store
        persists and a sim worker rebuilds the job from.  It holds keys
        only: a program kept alive here would stay resident in every API
        worker.  A spec that fails validation raises before it is stored;
        one with no canonical form (a NaN, say) is built and keyed every
        time, and the store refuses it at enqueue.
        """
        try:
            text = canonical_dumps(spec)
        except (ConfigurationError, TypeError):
            text = None
        keyed = self._keyed_specs.get(text)
        if keyed is None:
            job = build_job(spec)
            keyed = _Keyed(job_key(job), job.factory, job.label)
            if text is not None:
                if len(self._keyed_specs) >= KEYED_SPECS:
                    self._keyed_specs.clear()
                self._keyed_specs[text] = keyed
        return keyed

    def submit(self, spec: dict, trace_id: str = "") -> JobRecord:
        """Validate, answer from cache, or enqueue durably; never blocks.

        A spec this queue has seen before skips :func:`build_job` and
        :func:`job_key` and goes straight to the cache.
        """
        keyed = self._keyed(spec)
        key = keyed.key
        job_id = self._new_job_id()

        cached = self.cache.get(key)
        if cached is not None:
            now = time.time()
            run_id = self.store.record_result(
                key, cached, job=keyed, experiment=f"job/{keyed.factory}"
            )
            # settled on arrival; inserted for cross-worker visibility
            self.store.enqueue_job(
                job_id, key, spec, state="done", cached=True,
                run_id=run_id, submitted=now, finished=now,
                trace_id=trace_id,
            )
            self._submissions.labels("cached").inc()
            return JobRecord(
                job_id=job_id, key=key, spec=spec, state="done",
                cached=True, submitted=now, finished=now, run_id=run_id,
                trace_id=trace_id,
            )

        accepted = self.store.enqueue_job(
            job_id, key, spec, capacity=self.capacity, trace_id=trace_id
        )
        if not accepted:
            self._submissions.labels("rejected").inc()
            raise JobQueueFull(
                f"job queue full ({self.capacity} pending); retry later"
            )
        self.doorbell.release()
        self._submissions.labels("accepted").inc()
        return self._record(self.store.get_job(job_id))

    # ------------------------------------------------------------ draining
    def claim_and_run_one(self) -> bool:
        """Claim the oldest queued job and execute it; False when idle.

        Runs in whatever process calls it — the jobs travel as JSON
        specs, so the claimer rebuilds the :class:`SimJob` locally.  The
        row carries the content key the submitter computed, so the job
        is looked up and stored under it without being keyed again; only
        a cache miss simulates.
        """
        claimed = self.store.claim_job(self.owner)
        if claimed is None:
            return False
        job_id = claimed["job_id"]
        trace = claimed.get("trace_id") or None
        self._queue_wait.observe(claimed["started"] - claimed["submitted"])
        if self.events is not None:
            self.events.emit(
                "job_claimed", trace=trace, job_id=job_id, owner=self.owner,
                queue_wait_s=round(claimed["started"] - claimed["submitted"], 6),
            )
        start = time.time()
        try:
            key = claimed["key"]
            job = build_job(claimed["spec"])
            result = self.cache.get(key)
            if result is None:
                result = batch.execute_job(job)
                self.executed += 1
                self.cache.put(key, result, job=job)
            run_id = self.store.record_result(
                key, result, job=job,
                experiment=f"job/{job.factory}",
            )
            self.store.finish_job(job_id, "done", run_id=run_id)
            if self.events is not None:
                self.events.emit(
                    "job_done", trace=trace, job_id=job_id,
                    owner=self.owner, run_id=run_id,
                    run_seconds=round(time.time() - start, 6),
                )
        except Exception as exc:  # surface, don't kill the drain loop
            self.store.finish_job(
                job_id, "failed", error=f"{type(exc).__name__}: {exc}"
            )
            if self.events is not None:
                self.events.emit(
                    "job_failed", trace=trace, job_id=job_id,
                    owner=self.owner, error=f"{type(exc).__name__}: {exc}",
                )
        self._run_seconds.observe(time.time() - start)
        return True

    def drain_until_stopped(
        self, heartbeat: Callable[[], None] | None = None
    ) -> None:
        """Claim and run jobs until :meth:`stop`; idle, wait for the doorbell.

        The one drain loop: every simulation pool worker runs it, and
        so does the in-process :meth:`start` thread.  ``heartbeat``, if
        given, is called after every executed job and every idle wait, so
        at least every :data:`HEARTBEAT_SECONDS`.
        """
        while not self._stop.is_set():
            if self.claim_and_run_one():
                # take this job's ring, if any, so the count tracks the
                # backlog instead of growing while the worker stays busy
                self.doorbell.acquire(False)
            else:
                self.doorbell.acquire(timeout=HEARTBEAT_SECONDS)
            if heartbeat is not None:
                heartbeat()

    def start(self) -> None:
        """Drain in a thread of this process (an embedded queue, as in
        the tests; ``repro serve`` drains in sim worker processes)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self.drain_until_stopped, daemon=True,
                name="repro-store-job-queue",
            )
            self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop draining; ring the doorbell so an idle loop exits at once."""
        self._stop.set()
        self.doorbell.release()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout)

    # ------------------------------------------------------------- queries
    @staticmethod
    def _record(row: dict | None) -> JobRecord | None:
        if row is None:
            return None
        return JobRecord(
            job_id=row["job_id"],
            key=row["key"],
            spec=row["spec"],
            state=row["state"],
            cached=row["cached"],
            submitted=row["submitted"],
            started=row["started"],
            finished=row["finished"],
            error=row["error"],
            run_id=row["run_id"],
            trace_id=row.get("trace_id", ""),
        )

    def get(self, job_id: str) -> JobRecord | None:
        return self._record(self.store.get_job(job_id))

    def list(self) -> list[JobRecord]:
        return [self._record(row) for row in self.store.list_jobs()]

    def depth(self) -> int:
        """Jobs queued but not yet claimed by any worker."""
        return self.store.queued_depth()

    def wait(self, job_id: str, timeout: float = 30.0) -> JobRecord:
        """Block until a job settles (tests and smoke scripts)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            record = self.get(job_id)
            if record is None:
                raise KeyError(job_id)
            if record.state in ("done", "failed"):
                return record
            time.sleep(0.01)
        raise TimeoutError(f"job {job_id} still {self.get(job_id).state}")
