"""The four benchmark workloads: ``sweep``, ``fuzz``, ``sim`` and ``serve``.

Each workload makes its inputs from the workload seed alone, runs a fixed
number of items (a function of ``--seconds``, never of elapsed time, so
counts and memory do not follow host speed) and checks every output.

A workload object goes through ``setup()`` (imports, input generation,
server start, one untimed warm-up item), ``measure()`` (the timed phase)
and ``check()`` (output checks, after the timed phase), then ``close()``.
``measure()`` fills a :class:`Measurement`.

All ``repro`` imports happen inside ``setup()``, so they count as set-up.
The simulator is always called through module attributes (``batch.run_many``,
not a copied name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import multiprocessing
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

#: reconfiguration latencies and queue depths of the sweep grid.
SWEEP_LATENCIES = (4, 16)
SWEEP_DEPTHS = (7, 11)

#: items each workload runs per second of ``--seconds``, sized so the
#: timed phase lasts about ``--seconds`` on a 2-core shared host.
SWEEP_PROGRAMS_PER_S = 1.33
SIM_ROUNDS_PER_S = 2.7  # a round is one job per catalogue policy
FUZZ_ROUNDS_PER_S = 1.55  # a round is one run_fuzz call of FUZZ_ROUND iterations
FUZZ_ROUND = 8
SERVE_JOBS_PER_S = 6.7

#: the median time of one calibration kernel on the reference host.  Every
#: host time of the in-process workloads is scaled by ``CALIBRATION_S``
#: over the mean of the two :func:`calibrate` readings that bracket it
#: (see NOTES.md).
CALIBRATION_S = 0.004
#: kernel runs per calibration reading; their median resists interrupts.
CALIBRATION_RUNS = 5

#: the serve client's poll interval, well below the sim worker's 50 ms.
SERVE_POLL_S = 0.005
SERVE_JOB_TIMEOUT_S = 30.0


def _count(rate: float, seconds: int, least: int) -> int:
    return max(least, round(rate * seconds))


_PROBE_DOC = {
    "rows": [
        {"id": i, "name": f"row-{i}", "vals": [i * 0.5, i % 7, "x" * (i % 13)]}
        for i in range(200)
    ]
}


def calibrate() -> float:
    """Median host seconds of a fixed stdlib-only kernel of interpreter speed.

    Integer arithmetic and JSON round trips: no ``repro`` code, so a
    change to the program never changes the reading.  It tracks the
    shared host's speed swings closely (see NOTES.md).
    """
    times = []
    for _ in range(CALIBRATION_RUNS):
        start = time.perf_counter()
        total = 0
        for i in range(16_000):
            total += i * i % 7
        for _ in range(4):
            json.loads(json.dumps(_PROBE_DOC))
        times.append(time.perf_counter() - start)
    return sorted(times)[CALIBRATION_RUNS // 2]


@dataclass
class Measurement:
    """What one timed phase produced.

    Times are kept as ``(value, factor)`` pairs: the raw host time and its
    calibration factor.
    """

    #: items completed (jobs, fuzz iterations).
    items: int = 0
    #: retired simulated instructions over every item.
    instructions: int = 0
    #: host seconds spent on the items themselves (cached re-submissions excluded).
    busy_s: list = field(default_factory=list)
    #: per-item latency samples, ms.
    latency_ms: list = field(default_factory=list)
    #: answer time of already-settled items, ms.
    cached_ms: list = field(default_factory=list)
    #: workload-specific extras for the per-layer table.
    extra: dict = field(default_factory=dict)


def digest_records(records) -> str:
    """SHA-256 over the canonical JSON of each result record, in order."""
    from repro.utils.canonical import canonical_dumps

    h = hashlib.sha256()
    for record in records:
        h.update(canonical_dumps(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def _recipes() -> list[tuple[str, str, dict]]:
    """``(label, factory, kwargs)`` of every policy in the catalogue."""
    from repro.fabric.configuration import PREDEFINED_CONFIGS

    return [
        ("ffu-only", "ffu-only", {}),
        ("steering", "steering", {}),
        ("random", "random", {"period": 100}),
        ("oracle", "oracle", {}),
        ("demand", "demand", {}),
    ] + [(f"static-{c.name}", "static", {"config": c}) for c in PREDEFINED_CONFIGS]


def _job(recipe, program, params):
    """``(label, SimJob)`` of one policy recipe on one program."""
    from repro.evaluation.batch import SimJob

    label, factory, kwargs = recipe
    return label, SimJob(factory, program, params, kwargs=dict(kwargs), label=label)


def _shaped_program(shape: str, seed: int, iterations: int, body_len: int = 24):
    """One seeded program: a steady synthetic mix, or the phased one."""
    from repro.workloads.phases import phased_program
    from repro.workloads.synthetic import (
        BALANCED_MIX, FP_MIX, INT_MIX, MEM_MIX, synthetic_program,
    )

    if shape == "phased":
        # three phases of 3/5 the iterations each: about twice a steady
        # program's length, with two phase changes for steering to track
        third = max(1, iterations * 3 // 5)
        return phased_program(
            [(INT_MIX, third), (MEM_MIX, third), (FP_MIX, third)],
            body_len=body_len, seed=seed,
        )
    mix = {"int": INT_MIX, "mem": MEM_MIX, "fp": FP_MIX, "balanced": BALANCED_MIX}[shape]
    return synthetic_program(mix, body_len=body_len, iterations=iterations, seed=seed)


class Workload:
    """Seed, size and scratch directory of one workload run."""

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def peak_rss_mb(self) -> float:
        """Peak resident set size of this process, in MB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def factor(self) -> float:
        """Calibration factor for the host time since the previous call."""
        return 1.0

    def close(self) -> None:
        pass


class _InProcess(Workload):
    """Calibration, cached re-submissions and output checks of the
    workloads that simulate in-process."""

    #: cached re-submissions timed after each item.
    RESUBMITS = 4

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        #: the latest :func:`calibrate` reading.
        self.probe_s = calibrate()
        #: (label, job, result) of every measured simulation, in order.
        self.done: list = []
        #: (job, original result, cached answer) of every re-submission.
        self.resubmitted: list = []

    def factor(self) -> float:
        """``CALIBRATION_S`` over the mean of this calibration reading and
        the previous one, which bracket the host time measured since the
        previous call."""
        before, self.probe_s = self.probe_s, calibrate()
        return 2 * CALIBRATION_S / (before + self.probe_s)

    def _resubmit(self, settled, cache) -> list[float]:
        """Re-submit ``RESUBMITS`` settled jobs, spread over ``settled``;
        each is a result-cache hit.  Returns their times in ms."""
        times = []
        step = len(settled) // self.RESUBMITS
        for job, result in settled[::step][: self.RESUBMITS]:
            start = time.perf_counter()
            answer = self.batch.run_many([job], cache=cache)[0]
            times.append(1e3 * (time.perf_counter() - start))
            self.resubmitted.append((job, result, answer))
        return times

    def _resubmits_failed(self) -> int:
        return sum(answer is not result for _job, result, answer in self.resubmitted)

    def check(self, m: Measurement) -> tuple[int, int, list]:
        """Every simulation completed with the reference's final state."""
        from repro.core.reference import run_reference
        from repro.verify.invariants import check_result_pair

        failed = 0
        program = ref = None
        for label, job, result in self.done:
            if job.program is not program:
                program, ref = job.program, run_reference(job.program)
            params = job.params if job.params is not None else self.default_params
            if check_result_pair(label, result, ref, params):
                failed += 1
        failed += self._resubmits_failed()
        attempted = len(self.done) + len(self.resubmitted)
        return attempted, failed, [r.to_dict() for _, _, r in self.done]


class Sweep(_InProcess):
    """The paper's experiment shape: programs x policies x latency x depth.

    Programs cycle through a phased program (which churns the steering
    selection memo) and four steady synthetic mixes.  Each program's grid
    is one sequential ``run_many`` call, hence one lock-step vector batch
    of ``policies x latencies x depths`` lanes.
    """

    SHAPES = ("phased", "int", "mem", "fp", "balanced")
    # long loop bodies: the count of long-latency operations in a random
    # body, and with it a program's cost, varies less from seed to seed
    BODY_LEN = 48
    ITERATIONS = 6
    RESUBMITS = 8

    def setup(self) -> None:
        from repro.core.params import ProcessorParams
        from repro.evaluation import batch

        self.batch = batch
        self.default_params = ProcessorParams()
        rng = random.Random(self.seed)
        n = _count(SWEEP_PROGRAMS_PER_S, self.seconds, 2)
        self.grids = []
        for i in range(n):
            program = _shaped_program(
                self.SHAPES[i % len(self.SHAPES)], rng.getrandbits(32),
                self.ITERATIONS, self.BODY_LEN,
            )
            grid = []
            for latency in SWEEP_LATENCIES:
                for depth in SWEEP_DEPTHS:
                    params = ProcessorParams(reconfig_latency=latency, window_size=depth)
                    grid += [_job(r, program, params) for r in _recipes()]
            self.grids.append(grid)
        warm = _shaped_program("int", rng.getrandbits(32), 2)
        batch.run_many([_job(r, warm, None)[1] for r in _recipes()[:2]])

    def measure(self) -> Measurement:
        m = Measurement()
        cache = self.batch.ResultCache()
        for grid in self.grids:
            start = time.perf_counter()
            results = self.batch.run_many([job for _, job in grid], cache=cache)
            elapsed = time.perf_counter() - start
            settled = [(job, r) for (_, job), r in zip(grid, results)]
            cached = self._resubmit(settled, cache)
            f = self.factor()
            m.items += len(grid)
            m.busy_s.append((elapsed, f))
            m.latency_ms += [(1e3 * elapsed, f)] * len(grid)
            m.cached_ms += [(c, f) for c in cached]
            for (label, job), result in zip(grid, results):
                m.instructions += result.retired
                self.done.append((label, job, result))
        return m


class Sim(_InProcess):
    """Distinct seeded programs, one policy each: the scalar ``Processor``.

    No two jobs share a program, so ``run_many`` sends every job down the
    scalar path by the shape of its input.  A round is one ``run_many``
    call with one job per catalogue policy.
    """

    SHAPES = ("int", "mem", "fp", "balanced")
    ITERATIONS = 20

    def setup(self) -> None:
        from repro.core.params import ProcessorParams
        from repro.evaluation import batch

        self.batch = batch
        self.default_params = ProcessorParams()
        rng = random.Random(self.seed)
        n = _count(SIM_ROUNDS_PER_S, self.seconds, 1)
        recipes = _recipes()
        self.rounds = []
        k = 0
        for _ in range(n):
            jobs = []
            for recipe in recipes:
                shape = self.SHAPES[k % len(self.SHAPES)]
                program = _shaped_program(shape, rng.getrandbits(32), self.ITERATIONS)
                jobs.append(_job(recipe, program, None))
                k += 1
            self.rounds.append(jobs)
        warm = _shaped_program("int", rng.getrandbits(32), 2)
        batch.run_many([_job(recipes[1], warm, None)[1]])

    def measure(self) -> Measurement:
        m = Measurement()
        cache = self.batch.ResultCache()
        for jobs in self.rounds:
            stamps = []

            def progress(done, total, job, stamps=stamps):
                stamps.append(time.perf_counter())

            start = time.perf_counter()
            results = self.batch.run_many(
                [job for _, job in jobs], cache=cache, progress=progress
            )
            elapsed = time.perf_counter() - start
            settled = [(job, r) for (_, job), r in zip(jobs, results)]
            cached = self._resubmit(settled, cache)
            f = self.factor()
            m.items += len(jobs)
            m.busy_s.append((elapsed, f))
            m.latency_ms += [
                (1e3 * (b - a), f) for a, b in zip([start] + stamps, stamps)
            ]
            m.cached_ms += [(c, f) for c in cached]
            for (label, job), result in zip(jobs, results):
                m.instructions += result.retired
                self.done.append((label, job, result))
        return m


class Fuzz(_InProcess):
    """``run_fuzz`` in rounds of ``FUZZ_ROUND`` iterations.

    Many short distinct programs in 8-lane vector batches, plus the
    verify layer: generator, reference run, invariants and metamorphic
    scalar re-runs.  Hooks on the fuzzer's ``generate_program`` and
    ``run_many`` bindings time each iteration and keep its results.

    Each round freezes the generator shape (``base_config``), cycling
    through four pressures, so that program size, and with it the cost
    of a run, does not swing with the seed.
    """

    def setup(self) -> None:
        from repro.evaluation import batch
        from repro.isa.futypes import FUType
        from repro.verify import fuzz
        from repro.verify.generator import GeneratorConfig

        self.batch = batch
        self.fuzz = fuzz
        pressures = [
            (None, 0.15),
            ({FUType.INT_ALU: 0.55, FUType.INT_MDU: 0.3, FUType.LSU: 0.15}, 0.3),
            ({FUType.INT_ALU: 0.25, FUType.LSU: 0.6, FUType.INT_MDU: 0.15}, 0.0),
            ({FUType.FP_ALU: 0.35, FUType.FP_MDU: 0.35, FUType.INT_ALU: 0.2,
              FUType.LSU: 0.1}, 0.45),
        ]
        self.shapes = [
            GeneratorConfig(blocks=2, body_len=10, max_iterations=4,
                            flush_density=flush, weights=weights)
            for weights, flush in pressures
        ]
        rng = random.Random(self.seed)
        n = _count(FUZZ_ROUNDS_PER_S, self.seconds, 1)
        self.round_seeds = [rng.getrandbits(32) for _ in range(n)]
        self.iteration_starts: list[float] = []
        self.batches: list = []
        generate, run_many = fuzz.generate_program, fuzz.run_many

        def timed_generate(*args, **kwargs):
            self.iteration_starts.append(time.perf_counter())
            return generate(*args, **kwargs)

        def kept_run_many(jobs, *args, **kwargs):
            results = run_many(jobs, *args, **kwargs)
            self.batches.append((list(jobs), results))
            return results

        fuzz.generate_program = timed_generate
        fuzz.run_many = kept_run_many
        fuzz.run_fuzz(rng.getrandbits(32), iterations=1, base_config=self.shapes[0])
        self.iteration_starts.clear()
        self.batches.clear()
        self.reports = []

    def measure(self) -> Measurement:
        m = Measurement()
        for r, round_seed in enumerate(self.round_seeds):
            first = len(self.iteration_starts)
            shape = self.shapes[r % len(self.shapes)]
            start = time.perf_counter()
            report = self.fuzz.run_fuzz(round_seed, iterations=FUZZ_ROUND, base_config=shape)
            end = time.perf_counter()
            self.reports.append(report)
            jobs, results = self.batches[-1]
            cache = self.batch.ResultCache()
            for job, result in zip(jobs, results):
                cache.put(self.batch.job_key(job), result)
            cached = self._resubmit(list(zip(jobs, results)), cache)
            f = self.factor()
            m.items += report.iterations_run
            m.busy_s.append((end - start, f))
            stamps = self.iteration_starts[first:] + [end]
            m.latency_ms += [(1e3 * (b - a), f) for a, b in zip(stamps, stamps[1:])]
            m.cached_ms += [(c, f) for c in cached]
        for _jobs, results in self.batches:
            m.instructions += sum(r.retired for r in results)
        return m

    def check(self, m: Measurement) -> tuple[int, int, list]:
        """``FuzzReport.ok`` and the expected simulation count per round.

        An iteration fails when it found a violation or never ran; a round
        whose simulation count is off fails as a whole.
        """
        from repro.core.baselines import policy_catalogue

        per_iteration = len(policy_catalogue())
        failed = 0
        for report in self.reports:
            bad = len(report.failures) + FUZZ_ROUND - report.iterations_run
            if report.simulations != report.iterations_run * per_iteration:
                bad = FUZZ_ROUND
            failed += bad
        if len(self.batches) != FUZZ_ROUND * len(self.reports):
            failed += 1
        failed += self._resubmits_failed()
        attempted = FUZZ_ROUND * len(self.reports) + len(self.resubmitted)
        records = [r.to_dict() for _, results in self.batches for r in results]
        return attempted, failed, records


class Serve(Workload):
    """A 1 API + 1 sim worker ``Supervisor`` driven by one closed-loop client.

    The client submits distinct cache-missing ``mix:`` jobs one at a time
    and polls each until it settles; after every second one it re-submits
    the settled spec, which the API worker answers from the result cache.

    Times stay raw (factor 1): fixed timers dominate them, the sim
    worker's 50 ms idle poll and TCP delayed ACKs, and those do not follow
    host speed.
    """

    KINDS = ("int", "mem", "fp", "balanced")
    ITERATIONS = 6

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        self.dir = workdir / f"serve-{os.getpid()}"
        self.sup = self.conn = None
        self.rows: list = []

    def setup(self) -> None:
        from repro.serving.supervisor import Supervisor

        rng = random.Random(self.seed)
        n = _count(SERVE_JOBS_PER_S, self.seconds, 10)
        program_seeds = rng.sample(range(1, 1 << 30), n + 1)
        self.specs = [
            {
                "factory": "steering",
                "target": f"mix:{self.KINDS[i % len(self.KINDS)]}:{self.ITERATIONS}:{s}",
                "max_cycles": 100_000,
            }
            for i, s in enumerate(program_seeds)
        ]
        self.warm_spec = self.specs.pop()
        self.tag = f"{self.seed & 0xFFFFFFFF:08x}"
        self.dir.mkdir(parents=True)
        self.sup = Supervisor(
            str(self.dir / "runs.sqlite"), cache_dir=str(self.dir / "cache"),
            port=0, workers=1, sim_pool=1,
        )
        self.sup.start()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.sup.port, timeout=30)
        deadline = time.monotonic() + 30
        while True:
            try:
                if self._request("GET", "/api/health")[0] == 200:
                    break
            except OSError:
                self.conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.01)
        status, record = self._request("POST", "/api/jobs", self.warm_spec)
        self._settle(record, self.tag + "f" * 8)

    def _request(self, method: str, path: str, body=None, item: str | None = None):
        headers = {"Content-Type": "application/json"}
        if item is not None:
            headers["X-Repro-Trace-Id"] = item
        payload = json.dumps(body).encode() if body is not None else None
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None

    def _settle(self, record: dict, item: str) -> tuple[dict, int]:
        """Poll a job until it is done or failed; returns (row, polls)."""
        polls = 0
        deadline = time.perf_counter() + SERVE_JOB_TIMEOUT_S
        while record["state"] not in ("done", "failed"):
            if time.perf_counter() > deadline:
                raise TimeoutError(record["job_id"])
            time.sleep(SERVE_POLL_S)
            status, record = self._request("GET", f"/api/jobs/{record['job_id']}", item=item)
            polls += 1
            if status != 200:
                raise RuntimeError(f"poll answered {status}")
        return record, polls

    def measure(self) -> Measurement:
        m = Measurement()
        polls_total = 0
        self.resubmits = self.cached_ok = 0
        for i, spec in enumerate(self.specs):
            item = f"{self.tag}{i:08x}"
            start = time.perf_counter()
            try:
                status, record = self._request("POST", "/api/jobs", spec, item)
                if status != 202:
                    raise RuntimeError(f"submit answered {status}")
                record, polls = self._settle(record, item)
            except (OSError, RuntimeError, TimeoutError, ValueError):
                self.rows.append(None)
                continue
            elapsed = time.perf_counter() - start
            polls_total += polls
            self.rows.append(record)
            m.items += 1
            m.busy_s.append((elapsed, 1.0))
            m.latency_ms.append((1e3 * elapsed, 1.0))
            if i % 2:
                continue
            self.resubmits += 1
            start = time.perf_counter()
            status, again = self._request("POST", "/api/jobs", spec, item)
            m.cached_ms.append((1e3 * (time.perf_counter() - start), 1.0))
            if status == 200 and again["cached"] and again["state"] == "done":
                self.cached_ok += 1
        settled = [r for r in self.rows if r is not None]
        m.extra = {
            "polls_per_job": polls_total / max(1, len(settled)),
            "queue_wait_ms": _median([1e3 * (r["started"] - r["submitted"]) for r in settled]),
            "run_ms": _median([1e3 * (r["finished"] - r["started"]) for r in settled]),
        }
        return m

    def peak_rss_mb(self) -> float:
        """The largest server process's peak resident set size, in MB."""
        return max(_vm_hwm_mb(p.pid) for p in multiprocessing.active_children())

    def check(self, m: Measurement) -> tuple[int, int, list]:
        """Each job completed with the reference's retired count and state.

        Fetches the result artifacts first, which also gives
        ``m.instructions``.
        """
        from repro.core.reference import run_reference
        from repro.core.stats import SimulationResult
        from repro.serving.jobs import resolve_program

        self.artifacts = [
            self._request("GET", f"/api/runs/{r['run_id']}/artifact")[1]["artifact"]
            if r is not None and r["state"] == "done" else None
            for r in self.rows
        ]
        m.instructions = sum(a["retired"] for a in self.artifacts if a is not None)
        failed = 0
        for spec, artifact in zip(self.specs, self.artifacts):
            if artifact is None:
                failed += 1
                continue
            ref = run_reference(resolve_program(spec["target"]))
            want = SimulationResult(
                policy="", cycles=0, retired=0, halted=True,
                final_registers=ref.registers.snapshot(),
            ).final_state_digest
            if not (
                artifact["outcome"] == "completed"
                and artifact["retired"] == ref.executed
                and artifact["final_state_digest"] == want
            ):
                failed += 1
        failed += self.resubmits - self.cached_ok
        return len(self.specs) + self.resubmits, failed, [a for a in self.artifacts if a is not None]

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.sup is not None:
            self.sup.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


def _median(values: list) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def _vm_hwm_mb(pid: str | int) -> float:
    """Peak resident set size of a process, from ``/proc``, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


WORKLOADS = {"sweep": Sweep, "fuzz": Fuzz, "sim": Sim, "serve": Serve}
