"""Batch simulation engine.

Every evaluation experiment reduces to the same shape: a list of
independent (program, parameters, policy) simulations whose results are
then aggregated.  This module gives that shape one engine:

* :class:`SimJob` — a fully serialisable job description.  Policies are
  named through the builder table
  :data:`~repro.core.baselines.JOB_BUILDERS` (a policy object holds live
  fabric references, so jobs carry the *recipe*, never the instance), and
  a job's arguments are checked against its builder's signature when it
  is made (their names, and each one's type against its default);
* :func:`run_many` — deduplicates a batch by content key, answers what it
  can from the cache, and runs every remaining job through
  :func:`execute_job`, in this process or as one
  :class:`concurrent.futures.ProcessPoolExecutor` task per job, preserving
  job order in the returned results.  A pickled job is a few kilobytes
  and crosses the process boundary in well under a millisecond, against
  about a hundred milliseconds of simulation, so jobs travel whole;
* :class:`ResultCache` — a content-addressed result store (in-memory,
  optionally spilled to disk) keyed by :func:`job_key`, a SHA-256 over the
  job's complete semantic fingerprint: program binary + data image,
  processor parameters, factory name and arguments, and cycle budget.
  Identical jobs resubmitted — across experiments or across report runs —
  are answered from the cache without simulating.

Determinism: a job's result depends only on its fingerprint and on the
code that runs it (the simulator is seeded and has no wall-clock
dependence).  :func:`job_key` hashes the question; the disk cache keeps
its blobs under :func:`code_digest`, the hash of the code, so a result
answers only for the code that computed it.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import pickle
import re
import shutil
import threading
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Any

from repro.core.baselines import JOB_BUILDERS, policy_recipes
from repro.core.params import ProcessorParams
from repro.errors import ConfigurationError
from repro.fabric.configuration import Configuration
from repro.isa.futypes import FUType
from repro.isa.program import Program

__all__ = [
    "SimJob",
    "ResultCache",
    "run_many",
    "execute_job",
    "job_key",
    "code_digest",
    "policy_job",
    "FACTORY_NAMES",
    "FACTORY_ARGUMENTS",
    "REQUIRED",
]


# ------------------------------------------------------------ job factories
#: registered job factory names (:data:`repro.core.baselines.JOB_BUILDERS`).
FACTORY_NAMES = tuple(sorted(JOB_BUILDERS))


#: the default of a factory argument that has none (a required one).
REQUIRED = inspect.Parameter.empty

#: factory name -> each of its arguments -> the default (or
#: :data:`REQUIRED`): the builder's parameters but ``program``, ``params``
#: and ``observer``.
FACTORY_ARGUMENTS = {
    name: {
        p.name: p.default
        for p in inspect.signature(builder).parameters.values()
        if p.name not in ("program", "params", "observer")
    }
    for name, builder in JOB_BUILDERS.items()
}


def _fits(value: Any, default: Any) -> bool:
    """Whether ``value`` has the type of ``default`` (an int fits a float)."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    return isinstance(value, (int, float) if type(default) is float else type(default))


def _steering_trace() -> tuple[Any, Callable[[], dict[str, Any]]]:
    """The manager's selection runs, ``(selection, first_cycle, length)``
    tuples: one per steering decision, not one per cycle."""
    from repro.core.tracing import SteeringTrace

    trace = SteeringTrace()
    return trace, lambda: {"selection_runs": [tuple(run) for run in trace.runs]}


def _steering_telemetry() -> tuple[Any, Callable[[], dict[str, Any]]]:
    """Per-cycle series (``timeseries``), a Perfetto trace (``trace``) and
    the steering decision ledger (``decisions``), behind the serving
    layer's ``GET /api/runs/<id>/timeseries`` and ``.../decisions`` and
    ``repro explain``."""
    from repro.telemetry import ProcessorTelemetry

    tel = ProcessorTelemetry()
    return tel, lambda: {
        "timeseries": tel.snapshot(),
        "trace": tel.tracer.to_chrome_trace(),
        "decisions": tel.ledger.to_dict(),
    }


#: factories that attach an observer: ``recipe() -> (observer, collect)``;
#: the job returns ``{"result": ..., **collect()}``, a picklable dict, so
#: what was observed survives the process boundary and the result cache.
_OBSERVED: dict[str, Callable[[], tuple[Any, Callable[[], dict[str, Any]]]]] = {
    "steering-traced": _steering_trace,
    "steering-telemetry": _steering_telemetry,
}


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
        if self.factory not in JOB_BUILDERS:
            raise ConfigurationError(
                f"unknown job factory {self.factory!r}; "
                f"choose from {', '.join(FACTORY_NAMES)}"
            )
        arguments = FACTORY_ARGUMENTS[self.factory]
        optional = {n: d for n, d in arguments.items() if d is not REQUIRED}
        problems = {
            "unknown": self.kwargs.keys() - arguments.keys(),
            "missing": arguments.keys() - optional.keys() - self.kwargs.keys(),
            "mistyped": {
                n for n, v in self.kwargs.items()
                if n in optional and not _fits(v, optional[n])
            },
        }
        if any(problems.values()):
            raise ConfigurationError(
                f"job factory {self.factory!r}: "
                + ", ".join(f"{k} {sorted(v)}" for k, v in problems.items() if v)
                + f" (it takes {sorted(arguments)})"
            )


def policy_job(
    name: str,
    program: Program,
    params: ProcessorParams | None = None,
    max_cycles: int = 400_000,
    **kwargs: Any,
) -> SimJob:
    """The job that runs comparison point ``name`` of
    :func:`~repro.core.baselines.policy_catalogue`; ``kwargs`` are extra
    factory arguments."""
    recipes = policy_recipes()
    if name not in recipes:
        raise ConfigurationError(
            f"unknown policy {name!r}; choose from {', '.join(sorted(recipes))}"
        )
    factory, base = recipes[name]
    return SimJob(
        factory, program, params, max_cycles, kwargs={**base, **kwargs}, label=name
    )


def execute_job(job: SimJob) -> Any:
    """Run one job to completion (in this process) and return its result."""
    build = JOB_BUILDERS[job.factory]
    if job.factory == "reference":
        return build(job.program, **job.kwargs)
    recipe = _OBSERVED.get(job.factory)
    if recipe is None:
        proc = build(job.program, params=job.params, **job.kwargs)
        return proc.run(max_cycles=job.max_cycles)
    observer, collect = recipe()
    proc = build(job.program, params=job.params, observer=observer, **job.kwargs)
    return {"result": proc.run(max_cycles=job.max_cycles), **collect()}


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
    if isinstance(value, (Program, ProcessorParams)):
        return value.canonical()
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
    """Content key of a job: SHA-256 over its semantic fingerprint,
    ``repr(_canon((factory, program, params, max_cycles, kwargs)))``.

    The program and the parameters contribute the texts they render once
    and keep (their ``fingerprint``), so keying a program again under
    another policy or parameter point does not walk its words again; the
    text hashed is the same.  The label is deliberately excluded — two
    jobs asking the same question share one key no matter how the caller
    tagged them.
    """
    params = repr(None) if job.params is None else job.params.fingerprint
    fingerprint = ", ".join((
        repr(_canon(job.factory)),
        job.program.fingerprint,
        params,
        repr(_canon(job.max_cycles)),
        repr(_canon(job.kwargs)),
    ))
    return hashlib.sha256(f"('seq', {fingerprint})".encode()).hexdigest()


#: the ``repro`` package directory, whose sources :func:`code_digest` hashes.
_PACKAGE = Path(__file__).resolve().parents[1]

#: a :func:`code_digest`, the name of one cache namespace.
_DIGEST = re.compile(r"[0-9a-f]{64}")

#: seconds after which :meth:`ResultCache.prune` takes a file or namespace
#: nobody touched for dead: a killed writer's ``*.tmp``, another code
#: digest's namespace.
IDLE_S = 3600

#: results a :class:`ResultCache` keeps in memory, least recently used
#: dropped first; a full ``repro report --full`` puts 115 distinct jobs.
MEMORY_ENTRIES = 1024


@cache
def code_digest() -> str:
    """SHA-256 over the ``repro`` sources (every ``repro/**/*.py``, path and
    content): the identity of the code that answers a job.  Computed once
    per process; a forked child inherits its parent's."""
    digest = hashlib.sha256()
    for path in sorted(_PACKAGE.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(_PACKAGE).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


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


def _last_used(namespace: Path) -> float:
    """The newest mtime in a cache namespace: the directory's own (a blob
    written or removed) or a blob's (its last get or put).  A namespace
    that vanishes or changes under the scan reads as in use now."""
    try:
        return max(
            [namespace.stat().st_mtime]
            + [p.stat().st_mtime for p in namespace.iterdir()]
        )
    except OSError:
        return time.time()


class ResultCache:
    """Content-addressed result store: memory first, optionally disk.

    Memory keeps the :data:`MEMORY_ENTRIES` most recently used results, so
    a long-lived worker's cache stops growing there; a disk-backed cache
    answers an older key from its blob, a memory-only one misses.

    With a ``directory`` every stored result is also pickled to
    ``<directory>/<code_digest>/<key>.pkl``, so caches survive across
    processes and report invocations, and a result answers only for the
    code that computed it (the ``directory`` attribute names that
    namespace); without one the cache lives for the object's lifetime
    only.  Blob writes are atomic (tmp file + ``os.replace``), and a
    blob's mtime is its LRU clock: a write sets it and every :meth:`get`
    refreshes it, so :meth:`prune` evicts the blobs least recently used
    by any process sharing the directory first.

    An optional ``store`` (:class:`repro.serving.store.RunStore` or any
    object with a ``record_result(key, result, job=...)`` method) is
    notified on every :meth:`put`, so batch runs register their results
    as queryable runs without the callers changing.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        store: Any | None = None,
    ) -> None:
        #: key -> result, least recently used first; the threaded API
        #: server reads and writes it from every request thread.
        self._memory: dict[str, Any] = {}
        self._memory_lock = threading.Lock()
        self.directory = (
            Path(directory) / code_digest() if directory is not None else None
        )
        self.store = store
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # ------------------------------------------------------------ get / put
    def get(self, key: str) -> Any | None:
        with self._memory_lock:
            hit = key in self._memory
            if hit:  # to the young end of the LRU order
                result = self._memory[key] = self._memory.pop(key)
        if hit:
            self.hits += 1
            if self.directory is not None:
                self._refresh(key)
            return result
        if self.directory is not None:
            path = self._path(key)
            if path.exists():
                result = pickle.loads(path.read_bytes())
                self._remember(key, result)
                self._refresh(key)
                self.hits += 1
                return result
        self.misses += 1
        return None

    def _remember(self, key: str, result: Any) -> None:
        """Keep ``result`` in memory as the most recently used entry,
        dropping the least recently used one past :data:`MEMORY_ENTRIES`."""
        with self._memory_lock:
            self._memory.pop(key, None)
            self._memory[key] = result
            if len(self._memory) > MEMORY_ENTRIES:
                del self._memory[next(iter(self._memory))]

    def _refresh(self, key: str) -> None:
        """Move ``key`` to the young end of the LRU order on disk: a blob's
        mtime is its last read or write, for every process sharing the
        directory."""
        try:
            os.utime(self._path(key))
        except OSError:  # evicted by a concurrent prune; memory still answers
            pass

    def put(self, key: str, result: Any, job: SimJob | None = None) -> None:
        self._remember(key, result)
        if self.directory is not None:
            # a process of other code sharing the root may have pruned it
            self.directory.mkdir(parents=True, exist_ok=True)
            _atomic_write_bytes(self._path(key), pickle.dumps(result))
        if self.store is not None:
            self.store.record_result(key, result, job=job)

    def has(self, key: str) -> bool:
        """Whether ``key`` is answerable (memory or disk), without loading."""
        if key in self._memory:
            return True
        return self.directory is not None and self._path(key).exists()

    # -------------------------------------------------------- GC / stats
    def prune(
        self,
        max_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> dict[str, int]:
        """Evict disk blobs so the cache stops growing without bound.

        Every other code digest's namespace nobody has used for
        :data:`IDLE_S` goes first — no result there answers for this code,
        and a server of other code sharing the root keeps its own alive —
        with any blob kept in the cache root before blobs were namespaced.
        ``max_age`` (seconds) then drops every blob whose mtime — its last
        get or put, by any process — is older; ``max_bytes`` then evicts
        least-recently-used blobs until the namespace total fits.  Stale
        ``*.tmp`` files from killed writers (idle for :data:`IDLE_S`) are
        removed as well.  Returns eviction statistics; a memory-only cache
        is a no-op.
        """
        stats = {"removed": 0, "kept": 0, "bytes_freed": 0, "bytes_kept": 0}
        if self.directory is None:
            stats["kept"] = len(self._memory)
            return stats
        now = time.time() if now is None else now
        root = self.directory.parent
        others = [
            p for p in root.iterdir()
            if p != self.directory and _DIGEST.fullmatch(p.name)
            and now - _last_used(p) > IDLE_S
        ]
        stale = list(root.glob("*.pkl"))  # kept before blobs were namespaced
        for other in others:
            stale += other.glob("*.pkl")
        for path in stale:
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:  # racing concurrent eviction
                continue
            stats["removed"] += 1
            stats["bytes_freed"] += size
        for other in others:
            shutil.rmtree(other, ignore_errors=True)
        for tmp in self.directory.glob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime > IDLE_S:
                    tmp.unlink(missing_ok=True)
            except OSError:
                pass
        blobs: list[tuple[float, int, str, Path]] = []
        for path in self.directory.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:  # racing concurrent eviction
                continue
            blobs.append((stat.st_mtime, stat.st_size, path.stem, path))
        blobs.sort()  # oldest mtime first = LRU eviction order
        total = sum(size for _, size, _, _ in blobs)
        freed = 0
        for mtime, size, key, path in blobs:
            too_old = max_age is not None and now - mtime > max_age
            over_budget = max_bytes is not None and total - freed > max_bytes
            if too_old or over_budget:
                path.unlink(missing_ok=True)
                with self._memory_lock:
                    self._memory.pop(key, None)
                stats["removed"] += 1
                freed += size
            else:
                stats["kept"] += 1
        stats["bytes_freed"] += freed
        stats["bytes_kept"] = total - freed
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
) -> list[Any]:
    """Execute a batch of jobs; results come back in submission order.

    Jobs with identical content keys are simulated once per batch, and a
    ``cache`` answers repeats across batches.  Every remaining job runs
    through :func:`execute_job`: in order in this process for
    ``workers <= 1`` (no process start-up for small batches), or as one
    :class:`~concurrent.futures.ProcessPoolExecutor` task per job for
    ``workers > 1``, under the platform's default start method, settled
    as the tasks complete.  ``progress(done, total, job)`` is invoked as
    each job resolves (cache hits included).
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
                resolved(i, hit)
                continue
        pending.setdefault(key, []).append(i)

    def settle(key: str, result: Any) -> None:
        if cache is not None:
            cache.put(key, result, job=jobs[pending[key][0]])
        for i in pending[key]:
            resolved(i, result)

    if workers <= 1:
        for key, indices in pending.items():
            settle(key, execute_job(jobs[indices[0]]))
        return results

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(execute_job, jobs[indices[0]]): key
            for key, indices in pending.items()
        }
        for fut in as_completed(futures):
            settle(futures[fut], fut.result())
    return results
