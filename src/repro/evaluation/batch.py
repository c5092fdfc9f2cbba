"""Parallel batch simulation engine.

Every evaluation experiment reduces to the same shape: a list of
independent (program, parameters, policy) simulations whose results are
then aggregated.  This module gives that shape one engine:

* :class:`SimJob` — a fully serialisable job description.  Policies are
  named through a factory registry (a policy object holds live fabric
  references, so jobs carry the *recipe*, never the instance);
* :func:`run_many` — executes a batch sequentially or across worker
  processes (:class:`concurrent.futures.ProcessPoolExecutor`), preserving
  job order in the returned results.  The parallel path ships each
  distinct **program image once per worker** (not once per job): the
  distinct programs of the batch are keyed by their content hash and
  installed into a worker-global registry through the pool initializer —
  inherited for free under the ``fork`` start method, pickled exactly
  once per worker otherwise — and the per-job payload submitted to the
  pool carries only the factory name, parameters and the program's hash.
  A thousand-job sweep over one workload serialises the program image a
  handful of times (once per worker), not a thousand;
* :class:`ResultCache` — a content-addressed result store (in-memory,
  optionally spilled to disk) keyed by :func:`job_key`, a SHA-256 over the
  job's complete semantic fingerprint: program binary + data image,
  processor parameters, factory name and arguments, and cycle budget.
  Identical jobs resubmitted — across experiments or across report runs —
  are answered from the cache without simulating.

Determinism: a job's result depends only on its fingerprint (the
simulator is seeded and has no wall-clock dependence), which is what makes
content-keyed caching sound.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from repro.core.baselines import (
    demand_processor,
    fixed_superscalar,
    oracle_processor,
    random_processor,
    static_processor,
    steering_processor,
)
from repro.core.params import ProcessorParams
from repro.core.reference import run_reference
from repro.errors import ConfigurationError
from repro.fabric.configuration import Configuration
from repro.isa.futypes import FUType
from repro.isa.program import Program
from repro.utils.canonical import canonical_dumps

__all__ = [
    "SimJob",
    "ResultCache",
    "run_many",
    "execute_job",
    "job_key",
    "program_key",
    "FACTORY_NAMES",
]


# ------------------------------------------------------------ job factories
def _make_ffu_only(program, params, max_cycles, **kw):
    return fixed_superscalar(program, params).run(max_cycles=max_cycles)


def _make_steering(program, params, max_cycles, **kw):
    return steering_processor(
        program, params, use_exact_metric=kw.get("use_exact_metric", False)
    ).run(max_cycles=max_cycles)


def _make_steering_traced(program, params, max_cycles, **kw):
    # steering with the manager trace observed; returns a picklable dict so
    # the trace survives the process boundary and the result cache.
    from repro.core.tracing import SteeringTrace

    trace = SteeringTrace(limit=kw.get("trace_limit"))
    proc = steering_processor(
        program,
        params,
        use_exact_metric=kw.get("use_exact_metric", False),
        observer=trace,
    )
    result = proc.run(max_cycles=max_cycles)
    return {
        "result": result,
        "selections": [t.selection for t in trace.entries],
        "load_cycles": [t.cycle for t in trace.entries if t.load is not None],
        "kept_fraction": proc.policy.manager.stats.current_kept_fraction,
    }


def _make_steering_telemetry(program, params, max_cycles, **kw):
    """Steering run with full telemetry: per-cycle series + Chrome trace.

    Returns a picklable dict: ``metrics_of``/the run store read the
    ``result`` key unchanged, the serving layer exposes ``timeseries``
    (``GET /api/runs/<id>/timeseries``), ``trace`` (Perfetto JSON) and
    ``decisions`` (the steering decision ledger behind
    ``GET /api/runs/<id>/decisions`` / ``repro explain``; disable with
    ``decision_ledger=false`` in the job kwargs).
    """
    from repro.telemetry import DecisionLedger, ProcessorTelemetry, SpanTracer

    tracer = SpanTracer(max_events=kw.get("max_span_events", 8192))
    ledger = (
        DecisionLedger(
            capacity=kw.get("ledger_capacity", 256),
            window=kw.get("ledger_window", 64),
        )
        if kw.get("decision_ledger", True)
        else None
    )
    tel = ProcessorTelemetry(
        series_capacity=kw.get("series_capacity", 2048),
        sample_interval=kw.get("sample_interval", 32),
        tracer=tracer,
        ledger=ledger,
    )
    result = steering_processor(
        program,
        params,
        use_exact_metric=kw.get("use_exact_metric", False),
        observer=tel,
    ).run(max_cycles=max_cycles)
    out = {
        "result": result,
        "timeseries": tel.snapshot(),
        "trace": tracer.to_chrome_trace(),
    }
    if ledger is not None:
        out["decisions"] = ledger.to_dict()
    return out


def _make_steering_basis(program, params, max_cycles, **kw):
    from repro.core.policies import PaperSteering
    from repro.core.processor import Processor

    params = params if params is not None else ProcessorParams()
    policy = PaperSteering(
        configs=tuple(kw["configs"]), queue_size=params.window_size
    )
    return Processor(program, params=params, policy=policy).run(
        max_cycles=max_cycles
    )


def _make_static(program, params, max_cycles, **kw):
    return static_processor(program, kw["config"], params).run(
        max_cycles=max_cycles
    )


def _make_random(program, params, max_cycles, **kw):
    return random_processor(
        program, params, period=kw.get("period", 200), seed=kw.get("seed", 0)
    ).run(max_cycles=max_cycles)


def _make_oracle(program, params, max_cycles, **kw):
    return oracle_processor(
        program, params, lookahead=kw.get("lookahead", 64)
    ).run(max_cycles=max_cycles)


def _make_demand(program, params, max_cycles, **kw):
    return demand_processor(
        program,
        params,
        smoothing=kw.get("smoothing", 0.1),
        improvement_margin=kw.get("improvement_margin", 0.15),
    ).run(max_cycles=max_cycles)


def _make_reference(program, params, max_cycles, **kw):
    # functional (non-cycle-accurate) reference execution; ``params`` and
    # ``max_cycles`` do not apply — the budget is in dynamic instructions.
    return run_reference(
        program, max_instructions=kw.get("max_instructions", 1_000_000)
    )


_FACTORIES: dict[str, Callable[..., Any]] = {
    "ffu-only": _make_ffu_only,
    "steering": _make_steering,
    "steering-telemetry": _make_steering_telemetry,
    "steering-traced": _make_steering_traced,
    "steering-basis": _make_steering_basis,
    "static": _make_static,
    "random": _make_random,
    "oracle": _make_oracle,
    "demand": _make_demand,
    "reference": _make_reference,
}

#: registered job factory names.
FACTORY_NAMES = tuple(sorted(_FACTORIES))


# ------------------------------------------------------------------ job spec
@dataclass
class SimJob:
    """One simulation, described entirely by picklable values."""

    #: factory registry name (see :data:`FACTORY_NAMES`).
    factory: str
    program: Program
    params: ProcessorParams | None = None
    max_cycles: int = 400_000
    #: extra factory arguments (must be fingerprintable: primitives,
    #: sequences, dicts, Configuration, FUType).
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: free-form tag carried through to progress callbacks.
    label: str = ""

    def __post_init__(self) -> None:
        if self.factory not in _FACTORIES:
            raise ConfigurationError(
                f"unknown job factory {self.factory!r}; "
                f"choose from {', '.join(FACTORY_NAMES)}"
            )


def execute_job(job: SimJob) -> Any:
    """Run one job to completion (in this process) and return its result."""
    return _FACTORIES[job.factory](
        job.program, job.params, job.max_cycles, **job.kwargs
    )


def run_vector_batch(jobs: Iterable[SimJob]) -> list[Any]:
    """Run ``jobs`` one after another with :func:`execute_job`.

    Not used by :func:`run_many`.  It exists only because the benchmark's
    per-layer tracer (``perfbench/tracing.py``) wraps this name and reports
    it as ``evaluation.vector.*``; nothing calls it, so those metrics read
    0.  Delete it together with that wrapper.
    """
    return [execute_job(job) for job in jobs]


# ------------------------------------------------------------- content keys
def _canon(value: Any) -> Any:
    """Reduce a job component to primitives with a deterministic repr."""
    if isinstance(value, Program):
        return (
            "program",
            tuple(value.to_binary()),
            bytes(value.data),
            tuple(sorted(value.labels.items())),
            tuple(sorted(value.data_labels.items())),
        )
    if isinstance(value, ProcessorParams):
        return ("params",) + tuple(
            (f.name, _canon(getattr(value, f.name))) for f in fields(value)
        )
    if isinstance(value, Configuration):
        return (
            "config",
            value.name,
            tuple(sorted((t.name, n) for t, n in value.counts.items())),
        )
    if isinstance(value, FUType):
        return ("futype", value.name)
    if isinstance(value, dict):
        return (
            "dict",
            tuple(sorted(((_canon(k), _canon(v)) for k, v in value.items()), key=repr)),
        )
    if isinstance(value, (list, tuple)):
        return ("seq",) + tuple(_canon(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    raise ConfigurationError(
        f"job component {value!r} has no canonical fingerprint"
    )


def job_key(job: SimJob) -> str:
    """Content key of a job: SHA-256 over its semantic fingerprint.

    The label is deliberately excluded — two jobs asking the same question
    share one key no matter how the caller tagged them.
    """
    fingerprint = _canon(
        (job.factory, job.program, job.params, job.max_cycles, job.kwargs)
    )
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


def program_key(program: Program) -> str:
    """Content key of a program image alone (SHA-256 of its fingerprint).

    Used by the parallel path of :func:`run_many` to ship each distinct
    program to the worker processes exactly once, however many jobs of the
    batch reference it.
    """
    return hashlib.sha256(repr(_canon(program)).encode()).hexdigest()


# ------------------------------------------------- worker-side program store
#: per-worker registry of program images, installed by :func:`_init_worker`
#: before the worker accepts its first job.  Keyed by :func:`program_key`.
_WORKER_PROGRAMS: dict[str, Program] = {}


# repro: allow[CON002] -- worker-process-local state: each pool worker owns
# its copy of _WORKER_PROGRAMS; no threads share it
def _init_worker(programs: dict[str, Program]) -> None:
    """Pool initializer: install the batch's distinct programs.

    Runs once per worker process.  Under the ``fork`` start method the
    dict arrives through the copied address space for free; under
    ``spawn``/``forkserver`` it is pickled once per worker — either way
    the cost is O(workers), not O(jobs).
    """
    _WORKER_PROGRAMS.update(programs)


def _shm_pack(programs: dict[str, Program]):
    """Place the pickled program registry in a shared-memory block.

    Spawn-start platforms pickle the pool initializer's arguments once
    per worker; with the registry in shared memory every worker instead
    attaches to one block and the per-worker cost drops to the block
    *name*.  Returns ``(block, payload_size)``, or ``None`` when shared
    memory is unavailable (the caller falls back to shipping the dict).
    """
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - stdlib module, but gate anyway
        return None
    payload = pickle.dumps(programs)
    try:
        block = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
    except (OSError, ValueError):  # pragma: no cover - platform without shm
        return None
    block.buf[: len(payload)] = payload
    return block, len(payload)


def _shm_unregister(block) -> None:
    """Detach a block from this process's resource tracker.

    On Python < 3.13 merely *attaching* registers the segment with the
    worker's resource tracker, which would unlink it behind the parent's
    back at worker exit; the parent owns cleanup, so undo the
    registration.
    """
    try:  # pragma: no cover - tracker layout is an implementation detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister(
            getattr(block, "_name", block.name), "shared_memory"
        )
    except Exception:
        pass


# repro: allow[CON002] -- worker-process-local state, as in _init_worker
def _init_worker_shm(name: str, size: int) -> None:
    """Pool initializer (spawn path): read the registry out of shared memory."""
    from multiprocessing import shared_memory

    block = shared_memory.SharedMemory(name=name)
    try:
        _WORKER_PROGRAMS.update(pickle.loads(bytes(block.buf[:size])))
    finally:
        block.close()
        _shm_unregister(block)


@dataclass
class _ShippedJob:
    """The per-job payload crossing the process boundary.

    A :class:`SimJob` minus its heaviest member: the program image is
    replaced by its content key and resolved from the worker-global
    registry on arrival.
    """

    factory: str
    program_hash: str
    params: ProcessorParams | None
    max_cycles: int
    kwargs: dict[str, Any]


def _ship(job: SimJob, key: str) -> _ShippedJob:
    return _ShippedJob(
        factory=job.factory,
        program_hash=key,
        params=job.params,
        max_cycles=job.max_cycles,
        kwargs=job.kwargs,
    )


def _execute_shipped(payload: _ShippedJob) -> Any:
    """Worker-side entry point: rehydrate the program and run the job."""
    program = _WORKER_PROGRAMS.get(payload.program_hash)
    if program is None:
        raise ConfigurationError(
            f"worker has no program for hash {payload.program_hash[:12]}…; "
            "was the pool started with the run_many initializer?"
        )
    return _FACTORIES[payload.factory](
        program, payload.params, payload.max_cycles, **payload.kwargs
    )


def _execute_shipped_timed(payload: _ShippedJob) -> tuple[float, Any]:
    """Timed worker entry point (batch telemetry): (run_seconds, result).

    The worker reports its own execution wall time; the parent subtracts
    it from the submit→completion round trip to estimate queue wait.
    """
    start = time.perf_counter()
    result = _execute_shipped(payload)
    return time.perf_counter() - start, result


def _group_by_program(
    unique: Sequence[tuple[str, SimJob]],
) -> tuple[dict[str, Program], dict[str, list[tuple[str, SimJob]]]]:
    """Group a deduplicated batch by program **content hash**.

    Returns ``(programs, groups)``: ``programs`` maps each content key to
    the batch's canonical :class:`Program` instance, ``groups`` maps the
    same key to the group's ``(job_key, job)`` pairs in submission order.
    Jobs whose programs are distinct objects with identical content land
    in one group and are rebound (``dataclasses.replace``) to the
    canonical instance, so the worker shipping path sends one image per
    distinct program — the same identity the :class:`ResultCache` keys
    already encode.  Hashing is memoised per program *object*, so the
    common sweep (thousands of jobs sharing one ``Program``) fingerprints
    it once.
    """
    programs: dict[str, Program] = {}
    groups: dict[str, list[tuple[str, SimJob]]] = {}
    key_by_id: dict[int, str] = {}
    for key, job in unique:
        pkey = key_by_id.get(id(job.program))
        if pkey is None:
            pkey = program_key(job.program)
            key_by_id[id(job.program)] = pkey
        canonical = programs.setdefault(pkey, job.program)
        if canonical is not job.program:
            job = replace(job, program=canonical)
        groups.setdefault(pkey, []).append((key, job))
    return programs, groups


def _prepare_shipment(
    unique: Sequence[tuple[str, SimJob]],
) -> tuple[dict[str, Program], list[tuple[str, _ShippedJob]]]:
    """Split a deduplicated batch into (distinct programs, light payloads).

    The returned ``programs`` dict goes to the workers once (via the pool
    initializer); the payloads — one per unique job — carry only the
    program's content hash.  Separated from :func:`run_many` so the tests
    can assert on exactly what crosses the process boundary.
    """
    programs, groups = _group_by_program(unique)
    shipped = [
        (key, _ship(job, pkey))
        for pkey, pairs in groups.items()
        for key, job in pairs
    ]
    return programs, shipped


# ------------------------------------------------------------- result cache
def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + :func:`os.replace`).

    A killed worker or a concurrent reader never observes a truncated
    file: the final name appears only after the full payload is on disk.
    The tmp name carries pid + thread id so concurrent writers of the
    same key never collide with each other.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ResultCache:
    """Content-addressed result store: memory first, optionally disk.

    With a ``directory`` every stored result is also pickled to
    ``<directory>/<key>.pkl``, so caches survive across processes and
    report invocations; without one the cache lives for the object's
    lifetime only.  Blob writes are atomic (tmp file + ``os.replace``),
    and every get/put refreshes the key's entry in an LRU touch-time
    index (``_touch.json`` in the directory) that :meth:`prune` uses to
    evict least-recently-used blobs first.

    An optional ``store`` (:class:`repro.serving.store.RunStore` or any
    object with a ``record_result(key, result, job=...)`` method) is
    notified on every :meth:`put`, so batch runs register their results
    as queryable runs without the callers changing.
    """

    #: name of the LRU touch-time index file inside the cache directory.
    INDEX_NAME = "_touch.json"

    def __init__(
        self,
        directory: str | Path | None = None,
        store: Any | None = None,
    ) -> None:
        self._memory: dict[str, Any] = {}
        self.directory = Path(directory) if directory is not None else None
        self.store = store
        self._touch: dict[str, float] = {}
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._touch = self._load_index()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # ------------------------------------------------ LRU touch-time index
    def _index_path(self) -> Path:
        return self.directory / self.INDEX_NAME

    def _load_index(self) -> dict[str, float]:
        try:
            raw = json.loads(self._index_path().read_text())
            return {str(k): float(v) for k, v in raw.items()}
        except (OSError, ValueError, TypeError, AttributeError):
            return {}

    def _save_index(self) -> None:
        _atomic_write_bytes(
            self._index_path(), canonical_dumps(self._touch).encode()
        )

    # ------------------------------------------------------------ get / put
    def get(self, key: str) -> Any | None:
        if key in self._memory:
            self.hits += 1
            if self.directory is not None:
                self._touch[key] = time.time()
            return self._memory[key]
        if self.directory is not None:
            path = self._path(key)
            if path.exists():
                result = pickle.loads(path.read_bytes())
                self._memory[key] = result
                self._touch[key] = time.time()
                self.hits += 1
                return result
        self.misses += 1
        return None

    def put(self, key: str, result: Any, job: SimJob | None = None) -> None:
        self._memory[key] = result
        if self.directory is not None:
            _atomic_write_bytes(self._path(key), pickle.dumps(result))
            self._touch[key] = time.time()
            self._save_index()
        if self.store is not None:
            self.store.record_result(key, result, job=job)

    def has(self, key: str) -> bool:
        """Whether ``key`` is answerable (memory or disk), without loading."""
        if key in self._memory:
            return True
        return self.directory is not None and self._path(key).exists()

    def __len__(self) -> int:
        return len(self._memory)

    # -------------------------------------------------------- GC / stats
    def prune(
        self,
        max_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> dict[str, int]:
        """Evict disk blobs so the cache stops growing without bound.

        ``max_age`` (seconds) drops every blob whose last touch — get or
        put, via the LRU index, falling back to file mtime — is older;
        ``max_bytes`` then evicts least-recently-used blobs until the
        directory total fits.  Stale ``*.tmp`` files from killed writers
        (older than an hour) are removed as well.  Returns eviction
        statistics; a memory-only cache is a no-op.
        """
        stats = {"removed": 0, "kept": 0, "bytes_freed": 0, "bytes_kept": 0}
        if self.directory is None:
            stats["kept"] = len(self._memory)
            return stats
        now = time.time() if now is None else now
        for tmp in self.directory.glob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime > 3600:
                    tmp.unlink(missing_ok=True)
            except OSError:
                pass
        blobs: list[tuple[float, int, str, Path]] = []
        for path in self.directory.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:  # racing concurrent eviction
                continue
            key = path.stem
            blobs.append(
                (self._touch.get(key, stat.st_mtime), stat.st_size, key, path)
            )
        blobs.sort()  # oldest touch first = LRU eviction order
        total = sum(size for _, size, _, _ in blobs)
        freed = 0
        for touched, size, key, path in blobs:
            too_old = max_age is not None and now - touched > max_age
            over_budget = max_bytes is not None and total - freed > max_bytes
            if too_old or over_budget:
                path.unlink(missing_ok=True)
                self._memory.pop(key, None)
                self._touch.pop(key, None)
                stats["removed"] += 1
                freed += size
            else:
                stats["kept"] += 1
        stats["bytes_freed"] = freed
        stats["bytes_kept"] = total - freed
        self._save_index()
        return stats

    def stats(self) -> dict[str, int]:
        """Occupancy counters for health endpoints and logs."""
        disk_blobs = disk_bytes = 0
        if self.directory is not None:
            for path in self.directory.glob("*.pkl"):
                try:
                    disk_bytes += path.stat().st_size
                except OSError:
                    continue
                disk_blobs += 1
        return {
            "memory_entries": len(self._memory),
            "disk_blobs": disk_blobs,
            "disk_bytes": disk_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }


# -------------------------------------------------------------- batch runner
def run_many(
    jobs: Iterable[SimJob],
    workers: int = 0,
    cache: ResultCache | None = None,
    progress: Callable[[int, int, SimJob], None] | None = None,
    mp_context: str | None = None,
    telemetry: Any | None = None,
) -> list[Any]:
    """Execute a batch of jobs; results come back in submission order.

    ``workers <= 1`` runs sequentially in this process (the default keeps
    single-simulation behaviour and avoids process start-up for small
    batches); ``workers > 1`` fans out over a process pool.  Jobs with
    identical content keys are simulated once per batch, and a ``cache``
    answers repeats across batches.  ``progress(done, total, job)`` is
    invoked as each job resolves (cache hits included).

    Every job runs through :func:`execute_job`: in order in this process,
    or as one pool task per job.  The parallel path groups jobs by program
    **content hash** so each distinct program ships to a worker once.

    ``mp_context`` forces a multiprocessing start method ("fork",
    "spawn", "forkserver"); the default is the platform's.  On non-fork
    start methods the program registry travels to the workers through
    one :mod:`multiprocessing.shared_memory` block instead of being
    pickled once per worker, falling back to per-worker pickling when
    shared memory is unavailable.

    ``telemetry`` (a :class:`repro.telemetry.BatchTelemetry`) records job
    outcomes, per-job queue-wait and run wall-time, and worker heartbeats
    on the engine's existing completion path; scheduling is unchanged.
    """
    jobs = list(jobs)
    total = len(jobs)
    results: list[Any] = [None] * total
    done = 0

    def resolved(index: int, result: Any) -> None:
        nonlocal done
        results[index] = result
        done += 1
        if progress is not None:
            progress(done, total, jobs[index])

    # cache lookups + within-batch dedup --------------------------------
    pending: dict[str, list[int]] = {}
    for i, job in enumerate(jobs):
        key = job_key(job)
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                if telemetry is not None:
                    telemetry.cache_hit()
                resolved(i, hit)
                continue
        pending.setdefault(key, []).append(i)
    if telemetry is not None:
        telemetry.deduped(
            sum(len(indices) - 1 for indices in pending.values())
        )

    def settle(key: str, result: Any) -> None:
        if cache is not None:
            cache.put(key, result, job=jobs[pending[key][0]])
        for i in pending[key]:
            resolved(i, result)

    unique = [(key, jobs[indices[0]]) for key, indices in pending.items()]

    if workers <= 1:
        for key, job in unique:
            if telemetry is not None:
                telemetry.submitted()
                start = time.perf_counter()
                result = execute_job(job)
                telemetry.finished(
                    job.label or job.factory,
                    run_seconds=time.perf_counter() - start,
                    queue_wait=0.0,
                )
            else:
                result = execute_job(job)
            settle(key, result)
        return results

    # Ship each distinct program once per worker (via the pool initializer),
    # not once per job: payloads carry only the program's content hash.
    programs, shipped = _prepare_shipment(unique)

    ctx = multiprocessing.get_context(mp_context) if mp_context else None
    start_method = (ctx or multiprocessing).get_start_method()
    initializer: Callable[..., None] = _init_worker
    initargs: tuple[Any, ...] = (programs,)
    block = None
    if start_method != "fork":
        packed = _shm_pack(programs)
        if packed is not None:
            block, payload_size = packed
            initializer, initargs = _init_worker_shm, (block.name, payload_size)
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            timed = telemetry is not None
            run_fn = _execute_shipped_timed if timed else _execute_shipped
            label_of = {key: (job.label or job.factory) for key, job in unique}
            futures: dict[Any, str] = {}
            submitted_at: dict[Any, float] = {}
            for key, payload in shipped:
                fut = pool.submit(run_fn, payload)
                futures[fut] = key
                submitted_at[fut] = time.perf_counter()
                if telemetry is not None:
                    telemetry.submitted()
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for fut in finished:
                    key = futures[fut]
                    outcome = fut.result()
                    if timed:
                        run_seconds, result = outcome
                        round_trip = (
                            time.perf_counter() - submitted_at[fut]
                        )
                        telemetry.finished(
                            label_of[key],
                            run_seconds=run_seconds,
                            queue_wait=max(0.0, round_trip - run_seconds),
                        )
                    else:
                        result = outcome
                    settle(key, result)
    finally:
        if block is not None:
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
    return results
