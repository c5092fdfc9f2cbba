"""Spans recorded from outside the program, around calls into each layer.

The benchmark never edits the simulator: :func:`install` replaces public
functions and methods of ``repro`` (in every module namespace that binds
them) with wrappers that record one span per call.  A span is the tuple
``(pid, id, parent, name, start, end, item, n, m)``: ``parent`` is the id
of the enclosing span in the same thread (0 for none), ``item`` the
benchmark item the call served (on ``serve``, the ``X-Repro-Trace-Id``
header), ``n`` and ``m`` two counts read from the call's result (lanes and
retired instructions, cache hits, claimed jobs).

Spans stay in memory and are written once, by :meth:`Tracer.flush`, when
the process ends.  The server processes of the ``serve`` workload inherit
the wrappers through ``fork`` and flush their own file.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: the trace id header the serving app honours (compared lower-cased).
TRACE_HEADER = "x-repro-trace-id"


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every span, e.g. those a forked child inherited."""
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_item(self, item: str) -> None:
        """Attach ``item`` to every open span of the calling thread."""
        for frame in self._stack():
            frame[1] = item

    def wrap(self, owner, attr: str, name, measure=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a callable ``(args, kwargs) -> name``.
        ``measure(args, result) -> (n, m, item)`` reads two counts and an
        item id from the call; the item may be None.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            # frame: [span id, item]; the item is inherited from the parent
            frame = [next(self._ids), parent[1] if parent else None]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                n = m = 0
                if measure is not None:
                    n, m, item = measure(args, result)
                    if item is not None:
                        frame[1] = item
                self.spans.append((
                    os.getpid(), frame[0], parent[0] if parent else 0,
                    name(args, kwargs) if callable(name) else name,
                    start, end, frame[1], n, m,
                ))

        setattr(owner, attr, traced)

    def flush(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(directory: Path) -> list[tuple]:
    """Every span flushed into ``directory``, by any process."""
    spans: list[tuple] = []
    for path in sorted(directory.glob("*.jsonl")):
        with open(path) as fh:
            spans.extend(tuple(json.loads(line)) for line in fh)
    return spans


# ------------------------------------------------------------ installation
def _retired(result) -> int:
    return getattr(result, "retired", 0)


def install(tracer: Tracer, span_dir: Path) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Functions are wrapped in each module that binds them by name, since
    ``from x import f`` copies the binding.
    """
    batch = importlib.import_module("repro.evaluation.batch")
    processor = importlib.import_module("repro.core.processor")
    fuzz = importlib.import_module("repro.verify.fuzz")
    jobs = importlib.import_module("repro.serving.jobs")
    app = importlib.import_module("repro.serving.app")
    store = importlib.import_module("repro.serving.store")
    events = importlib.import_module("repro.telemetry.events")
    supervisor = importlib.import_module("repro.serving.supervisor")
    workloads = importlib.import_module("workloads")

    w = tracer.wrap
    for module in (batch, fuzz, jobs):
        w(module, "run_many", "evaluation.batch.run_many")
    for module in (batch, jobs):
        w(module, "job_key", "evaluation.batch.job_key")
    for module in (batch, fuzz):
        w(module, "execute_job", "core.execute_job",
          lambda a, r: (1, _retired(r), None))
    w(batch, "run_vector_batch", "evaluation.vector.run_vector_batch",
      lambda a, r: (len(r), sum(_retired(x) for x in r), None))
    w(batch.ResultCache, "get", "evaluation.batch.cache.get",
      lambda a, r: (int(r is not None), 0, None))
    w(batch.ResultCache, "put", "evaluation.batch.cache.put")
    w(processor.Processor, "__init__", "core.construct")

    w(fuzz, "run_fuzz", "verify.run_fuzz")
    w(fuzz, "generate_program", "verify.generate")
    w(fuzz, "run_reference", "verify.reference")
    w(fuzz, "check_result_pair", "verify.invariants")
    w(fuzz, "_metamorphic_checks", "verify.metamorphic")

    def route(args, kwargs):
        return "serving.app.submit" if args[1] == "POST" else "serving.app.get"

    def request_item(args, result):
        headers = args[4] if len(args) > 4 else {}
        for key, value in (headers or {}).items():
            if key.lower() == TRACE_HEADER:
                return 0, 0, value
        return 0, 0, None

    def claimed(args, result):
        if result is not None and result.get("trace_id"):
            tracer.set_item(result["trace_id"])
        return int(result is not None), 0, None

    w(app.ServingApp, "handle", route, request_item)
    w(jobs, "build_job", "serving.jobs.build_job")
    w(jobs.StoreJobQueue, "claim_and_run_one", "serving.jobs.claim_and_run_one")
    w(store.RunStore, "enqueue_job", "serving.store.enqueue")
    w(store.RunStore, "claim_job", "serving.store.claim", claimed)
    w(store.RunStore, "finish_job", "serving.store.finish")
    w(store.RunStore, "record_result", "serving.store.record_result")
    w(events.EventLog, "emit", "serving.notify")
    w(workloads, "calibrate", "benchmark.calibrate")

    # forked server processes start from an empty span list and flush
    # their own file when their main function returns
    for main in ("_api_worker_main", "_sim_worker_main"):
        original = getattr(supervisor, main)

        def flushing(*args, _original=original, **kwargs):
            tracer.reset()
            try:
                return _original(*args, **kwargs)
            finally:
                tracer.flush(span_dir / f"{os.getpid()}.jsonl")

        setattr(supervisor, main, flushing)


# ------------------------------------------------------------- aggregation
_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0, "m": 0}


def layer_table(spans: list[tuple], start: float, end: float) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, summed counts.

    Only spans wholly inside ``[start, end]`` count.  A span's self time
    is its duration minus the durations of its direct children.
    """
    spans = [s for s in spans if s[4] >= start and s[5] <= end]
    child_time: dict[tuple, float] = defaultdict(float)
    for pid, _sid, parent, _name, s0, s1, *_ in spans:
        if parent:
            child_time[(pid, parent)] += s1 - s0
    table: dict[str, dict] = {}
    for pid, sid, _parent, name, s0, s1, _item, n, m in spans:
        row = table.setdefault(name, dict(_EMPTY))
        row["calls"] += 1
        row["total_s"] += s1 - s0
        row["self_s"] += (s1 - s0) - child_time[(pid, sid)]
        row["n"] += n
        row["m"] += m
    return table


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: dict[str, dict], timed_s: float, extra: dict) -> dict[str, tuple]:
    """The per-layer metrics of BENCHMARK.json, as ``name -> (value, unit)``.

    ``*_ms`` and ``*.us`` of a span are its mean inclusive time per call;
    ``.self_ms`` and ``busy_s`` are totals over the timed phase.  ``extra``
    carries what the workload measured itself: ``instructions`` (retired,
    every simulation), ``queue_wait_ms`` / ``run_ms`` (medians over the
    job rows), ``polls_per_job`` and ``overhead_pct``.
    """

    def row(name):
        return table.get(name, _EMPTY)

    def per_call_ms(name):
        r = row(name)
        return 1e3 * _ratio(r["total_s"], r["calls"])

    vec = row("evaluation.vector.run_vector_batch")
    scalar = row("core.execute_job")
    get = row("evaluation.batch.cache.get")
    claim = row("serving.store.claim")
    self_total = sum(r["self_s"] for r in table.values())
    return {
        "evaluation.vector.batches": (vec["calls"], "count"),
        "evaluation.vector.lanes_per_batch": (_ratio(vec["n"], vec["calls"]), "lanes"),
        "evaluation.vector.busy_s": (vec["total_s"], "s"),
        "evaluation.vector.us_per_lane_instr": (1e6 * _ratio(vec["total_s"], vec["m"]), "us"),
        "core.scalar_jobs": (scalar["calls"], "count"),
        "core.us_per_instr": (1e6 * _ratio(scalar["total_s"], scalar["m"]), "us"),
        "core.constructs": (row("core.construct")["calls"], "count"),
        "core.construct_ms": (per_call_ms("core.construct"), "ms"),
        "evaluation.batch.run_many.calls": (row("evaluation.batch.run_many")["calls"], "count"),
        "evaluation.batch.run_many.self_ms": (1e3 * row("evaluation.batch.run_many")["self_s"], "ms"),
        "evaluation.batch.job_key.us": (1e3 * per_call_ms("evaluation.batch.job_key"), "us"),
        "evaluation.batch.cache.hit_ratio": (_ratio(get["n"], get["calls"]), "ratio"),
        "evaluation.batch.cache.get_ms": (per_call_ms("evaluation.batch.cache.get"), "ms"),
        "evaluation.batch.cache.put_ms": (per_call_ms("evaluation.batch.cache.put"), "ms"),
        "verify.generate_ms": (per_call_ms("verify.generate"), "ms"),
        "verify.reference_ms": (per_call_ms("verify.reference"), "ms"),
        "verify.invariants_ms": (per_call_ms("verify.invariants"), "ms"),
        "verify.metamorphic_ms": (per_call_ms("verify.metamorphic"), "ms"),
        "serving.app.submit_ms": (per_call_ms("serving.app.submit"), "ms"),
        "serving.jobs.build_job_ms": (per_call_ms("serving.jobs.build_job"), "ms"),
        "serving.jobs.queue_wait_ms": (extra.get("queue_wait_ms", 0.0), "ms"),
        "serving.jobs.run_ms": (extra.get("run_ms", 0.0), "ms"),
        "serving.notify_ms": (per_call_ms("serving.notify"), "ms"),
        "serving.polls_per_job": (extra.get("polls_per_job", 0.0), "count"),
        "serving.store.enqueue_ms": (per_call_ms("serving.store.enqueue"), "ms"),
        "serving.store.claim_ms": (per_call_ms("serving.store.claim"), "ms"),
        "serving.store.claim_hit_ratio": (_ratio(claim["n"], claim["calls"]), "ratio"),
        "serving.store.finish_ms": (per_call_ms("serving.store.finish"), "ms"),
        "serving.store.record_result_ms": (per_call_ms("serving.store.record_result"), "ms"),
        "sim.instructions": (extra.get("instructions", 0), "count"),
        "trace.overhead_pct": (extra.get("overhead_pct", 0.0), "%"),
        "other.self_ms": (1e3 * (timed_s - self_total), "ms"),
    }


def render_table(title: str, table: dict[str, dict], timed_s: float) -> str:
    """A markdown table of every span name, largest self time first."""
    lines = [
        f"## {title}: layers over a {timed_s:.3f} s timed phase",
        "",
        "| span | calls | self ms | self % | inclusive ms | n | m |",
        "| --- | ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"| {name} | {r['calls']} | {1e3 * r['self_s']:.1f} | "
            f"{100 * _ratio(r['self_s'], timed_s):.1f} | "
            f"{1e3 * r['total_s']:.1f} | {r['n']} | {r['m']} |"
        )
    other = timed_s - sum(r["self_s"] for r in table.values())
    lines.append(
        f"| other | - | {1e3 * other:.1f} | "
        f"{100 * _ratio(other, timed_s):.1f} | - | - | - |"
    )
    return "\n".join(lines) + "\n"
