"""Pre-fork supervisor: N API worker processes + a simulation pool.

``repro serve`` always runs this.  The parent process owns the listening
socket and the process tree; it serves no requests itself:

- **API workers** (``api-0`` … ``api-N-1``) each run the full threaded
  HTTP server from :mod:`repro.serving.app` against their own
  :class:`~repro.serving.store.RunStore` connection (WAL mode makes the
  concurrent writers safe).  Job submissions go into the durable
  ``jobs`` table via :class:`~repro.serving.jobs.StoreJobQueue`; an API
  worker never runs a job itself.
- **Simulation pool workers** (``sim-0`` …) claim queued jobs from that
  table (atomic ``queued -> running`` update, so a job runs exactly
  once no matter which API worker accepted it) and execute them through
  the cached batch engine.

Socket: the parent binds **and listens** one socket before the first
fork, and every API worker accepts on the inherited FD.  The
listening socket outlives any one worker, so a connection that arrives
while a crashed worker is being respawned waits in the kernel backlog
instead of being refused.

Lifecycle: ``SIGTERM``/``SIGINT`` to the parent triggers graceful
shutdown — workers get ``SIGTERM``, finish in-flight requests/jobs
(``server.shutdown()`` waits for the request loop; the sim loop checks
its stop flag between jobs, and the SIGTERM handler rings the doorbell
so an idle one wakes at once), then the parent reaps everything.  A
worker that *crashes* is respawned with exponential backoff
(``respawn_base * 2**(crashes-1)``, capped), and its published metrics
snapshot is dropped so ``/metrics`` never reports a dead worker.

Workers are forked (``multiprocessing`` fork context): cheap, and the
listening socket, the job doorbell (one ``multiprocessing.Semaphore``
that every API worker's enqueue releases and every idle sim worker
waits on, see :mod:`repro.serving.jobs`), the code digest (computed at
start-up, before the first fork; it names the result cache's blob
namespace, which start-up prunes to that one) and the configuration
travel by inheritance — nothing is pickled.  Forked children never
reuse the parent's SQLite connections; the store re-opens per-process
(see ``RunStore._connection``).
"""

from __future__ import annotations

import multiprocessing
import signal
import socket
import threading
import time

from repro.evaluation.batch import ResultCache, code_digest
from repro.serving.app import ServingApp, make_server
from repro.serving.jobs import HEARTBEAT_SECONDS, StoreJobQueue
from repro.serving.store import RunStore
from repro.telemetry import EventLog, MetricsRegistry, events_path_for

__all__ = ["Supervisor"]

#: a worker alive this long is "healthy" — its crash backoff resets.
HEALTHY_SECONDS = 5.0


def _bound_socket(host: str, port: int):
    """The one listening TCP socket every API worker inherits.

    Non-blocking: a connection wakes ``select`` in every API worker, and
    the ones that lose the ``accept`` race must get ``BlockingIOError``
    (which ``socketserver`` drops) rather than block in ``accept``, where
    ``serve_forever`` would never see a shutdown request.  Accepted
    connections are blocking sockets all the same.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(128)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


# --------------------------------------------------------- worker mains
def _api_worker_main(
    name: str,
    host: str,
    sock,
    store_path: str,
    cache_dir: str | None,
    queue_capacity: int,
    verbose: bool,
    doorbell,
) -> None:
    """Entry point of one forked API worker process."""
    # the parent decides when we stop; a terminal Ctrl-C signals it, not us
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    store = RunStore(store_path)
    cache = ResultCache(cache_dir) if cache_dir is not None else ResultCache()
    registry = MetricsRegistry()
    events = EventLog(name, path=events_path_for(store_path), echo=verbose)
    jobs = StoreJobQueue(
        store, cache=cache, capacity=queue_capacity,
        registry=registry, owner=name, events=events, doorbell=doorbell,
    )

    def access_log(record: dict) -> None:
        events.emit("http_request", worker=name, **record)

    app = ServingApp(
        store, cache=cache, jobs=jobs, registry=registry,
        access_log=access_log, worker_name=name, events=events,
    )
    server = make_server(app, host, sock=sock)

    def _graceful(signum, frame):
        # shutdown() blocks until the serve loop exits; never call it
        # from the loop's own thread (the signal arrives there)
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    # publish an initial snapshot so /metrics sees this worker immediately,
    # then heartbeat it: a snapshot that stops refreshing marks this worker
    # dead and the store's freshness cutoff drops it from /metrics.
    store.publish_worker_metrics(name, registry.snapshot())
    hb_stop = threading.Event()

    def _heartbeat() -> None:
        while not hb_stop.wait(HEARTBEAT_SECONDS):
            store.publish_worker_metrics(name, registry.snapshot())

    hb = threading.Thread(target=_heartbeat, daemon=True, name=f"{name}-hb")
    hb.start()
    events.emit("worker_started", worker=name, kind="api")
    try:
        server.serve_forever(0.1)  # seconds between shutdown checks
    finally:
        hb_stop.set()
        hb.join(1.0)
        store.clear_worker_metrics(name)
        events.emit("worker_stopped", worker=name, kind="api")
        events.close()
        store.close()


def _sim_worker_main(
    name: str,
    store_path: str,
    cache_dir: str | None,
    queue_capacity: int,
    doorbell,
) -> None:
    """Entry point of one forked simulation pool worker process."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    store = RunStore(store_path)
    cache = ResultCache(cache_dir) if cache_dir is not None else ResultCache()
    registry = MetricsRegistry()
    events = EventLog(name, path=events_path_for(store_path))
    jobs = StoreJobQueue(
        store, cache=cache, capacity=queue_capacity,
        registry=registry, owner=name, events=events, doorbell=doorbell,
    )

    def _graceful(signum, frame):
        jobs.stop(timeout=0)  # rings the doorbell: an idle wait ends now

    def _publish() -> None:
        # after each job, so scrapes through any API worker reflect this
        # worker's queue-wait/run histograms; while idle, so the store's
        # age cutoff doesn't mistake an idle worker for a dead one
        store.publish_worker_metrics(name, registry.snapshot())

    signal.signal(signal.SIGTERM, _graceful)
    _publish()
    events.emit("worker_started", worker=name, kind="sim")
    try:
        jobs.drain_until_stopped(heartbeat=_publish)
    finally:
        store.clear_worker_metrics(name)
        events.emit("worker_stopped", worker=name, kind="sim")
        events.close()
        store.close()


class Supervisor:
    """Owns the listening port and the worker process tree."""

    def __init__(
        self,
        store_path: str,
        cache_dir: str | None = None,
        host: str = "127.0.0.1",
        port: int = 8734,
        workers: int = 1,
        sim_pool: int = 1,
        queue_capacity: int = 8,
        cache_max_bytes: int | None = None,
        cache_max_age: float | None = None,
        retention_max_runs: int | None = None,
        retention_max_age_days: float | None = None,
        verbose: bool = False,
        log=None,
        respawn_base: float = 0.5,
        respawn_cap: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one API worker")
        if sim_pool < 1:
            raise ValueError("need at least one simulation worker")
        self.store_path = store_path
        self.cache_dir = cache_dir
        self.host = host
        self.port = port
        self.workers = workers
        self.sim_pool = sim_pool
        self.queue_capacity = queue_capacity
        self.cache_max_bytes = cache_max_bytes
        self.cache_max_age = cache_max_age
        self.retention_max_runs = retention_max_runs
        self.retention_max_age_days = retention_max_age_days
        self.verbose = verbose
        self.log = log
        self.respawn_base = respawn_base
        self.respawn_cap = respawn_cap
        self._sock = None
        self._store: RunStore | None = None
        self._children: dict[str, object] = {}
        self._spawned_at: dict[str, float] = {}
        self._crashes: dict[str, int] = {}
        self._stopping = threading.Event()
        # one doorbell for the whole tree: any API worker's enqueue wakes
        # an idle sim worker, respawns included (fork
        # inheritance, so it must exist before the first _spawn)
        self._doorbell = multiprocessing.get_context("fork").Semaphore(0)

    def _note(self, msg: str) -> None:
        if self.log is not None:
            self.log(msg)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Bind the port, prep the store/cache, spawn every worker."""
        # parent-side store: retention, stale-metrics GC, crash cleanup.
        self._store = RunStore(self.store_path)
        if (
            self.retention_max_runs is not None
            or self.retention_max_age_days is not None
        ):
            trimmed = self._store.prune(
                max_runs=self.retention_max_runs,
                max_age_days=self.retention_max_age_days,
            )
            self._note(
                f"store retention: removed {trimmed['removed_runs']} runs, "
                f"{trimmed['removed_jobs']} settled jobs, "
                f"kept {trimmed['kept_runs']} runs"
            )
        self._store.clear_worker_metrics()  # drop any previous incarnation
        # hash the code before the first fork: every worker inherits the
        # one digest that names the cache namespace and the run revision
        code_digest()
        cache = (
            ResultCache(self.cache_dir)
            if self.cache_dir is not None
            else ResultCache()
        )
        if cache.directory is not None:
            pruned = cache.prune(
                max_bytes=self.cache_max_bytes, max_age=self.cache_max_age
            )
            self._note(
                f"cache GC: removed {pruned['removed']} blobs "
                f"({pruned['bytes_freed']} bytes), kept {pruned['kept']}"
            )
        # the shared accept socket: it stays listening across respawns
        self._sock = _bound_socket(self.host, self.port)
        self.port = self._sock.getsockname()[1]
        self._note(
            f"supervisor: {self.workers} api + {self.sim_pool} sim workers "
            f"on http://{self.host}:{self.port}/"
        )
        for i in range(self.workers):
            self._spawn(f"api-{i}")
        for i in range(self.sim_pool):
            self._spawn(f"sim-{i}")

    def _spawn(self, name: str) -> None:
        ctx = multiprocessing.get_context("fork")
        if name.startswith("api-"):
            proc = ctx.Process(
                target=_api_worker_main,
                name=name,
                args=(
                    name, self.host, self._sock, self.store_path,
                    self.cache_dir, self.queue_capacity, self.verbose,
                    self._doorbell,
                ),
            )
        else:
            proc = ctx.Process(
                target=_sim_worker_main,
                name=name,
                args=(
                    name, self.store_path, self.cache_dir,
                    self.queue_capacity, self._doorbell,
                ),
            )
        proc.start()
        self._children[name] = proc
        self._spawned_at[name] = time.monotonic()

    def run(self) -> int:
        """Supervise until signalled: reap crashes, respawn with backoff."""
        if not self._children:
            self.start()

        def _request_stop(signum, frame):
            self._stopping.set()

        # installable only from the main thread; tests drive run() from a
        # helper thread and stop via the event directly
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, _request_stop)
            signal.signal(signal.SIGINT, _request_stop)
        try:
            while not self._stopping.is_set():
                self._stopping.wait(0.2)
                if self._stopping.is_set():
                    break
                for name, proc in list(self._children.items()):
                    if proc.is_alive():
                        if (
                            self._crashes.get(name)
                            and time.monotonic() - self._spawned_at[name]
                            > HEALTHY_SECONDS
                        ):
                            self._crashes[name] = 0  # lived long enough
                        continue
                    proc.join()
                    crashes = self._crashes.get(name, 0) + 1
                    self._crashes[name] = crashes
                    delay = min(
                        self.respawn_base * (2 ** (crashes - 1)),
                        self.respawn_cap,
                    )
                    self._note(
                        f"worker {name} exited (code {proc.exitcode}); "
                        f"respawn #{crashes} in {delay:.1f}s"
                    )
                    # a crashed worker never cleaned up its snapshot
                    self._store.clear_worker_metrics(name)
                    if self._stopping.wait(delay):
                        break
                    self._spawn(name)
        finally:
            self.stop()
        return 0

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM every worker, reap, SIGKILL stragglers, release port."""
        self._stopping.set()
        for proc in self._children.values():
            if proc.is_alive():
                proc.terminate()  # SIGTERM -> graceful path in the worker
        deadline = time.monotonic() + timeout
        for name, proc in self._children.items():
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                self._note(f"worker {name} ignored SIGTERM; killing")
                proc.kill()
                proc.join(1.0)
        self._children.clear()
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._store is not None:
            self._store.clear_worker_metrics()
            self._store.close()
            self._store = None

