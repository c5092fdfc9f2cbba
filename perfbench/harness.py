"""One benchmark process: set up a workload, time it, check it.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON
object as its last stdout line.  ``--setup-only`` stops after set-up, so
``run.py`` can time set-up several times in fresh processes.  ``--trace 1``
installs the span wrappers before set-up (before ``serve`` forks its
server processes), writes the span file and the layer table under
``--out``, and reports the per-layer metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: digests of all result records at seed 0, by workload and ``--seconds``.
DIGESTS = Path(__file__).with_name("digests.json")


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(m: workloads.Measurement, peak_rss_mb: float, calibrated: bool) -> dict:
    """The end-to-end metrics but ``setup_s``, calibrated or raw."""

    def times(pairs):
        return [value * factor if calibrated else value for value, factor in pairs]

    busy_s = sum(times(m.busy_s))
    return {
        "sim_instr_per_s": (m.instructions / busy_s, "instr/s"),
        "throughput_per_s": (m.items / busy_s, "1/s"),
        "latency_p50_ms": (percentile(times(m.latency_ms), 50), "ms"),
        "latency_p90_ms": (percentile(times(m.latency_ms), 90), "ms"),
        "cached_p50_ms": (percentile(times(m.cached_ms), 50), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def digest_ok(name: str, seed: int, seconds: int, records: list) -> bool:
    """At seed 0, the result records must hash to the recorded digest."""
    if seed != 0:
        return True
    recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seconds))
    digest = workloads.digest_records(records)
    print(f"{name} seed 0 seconds {seconds} digest {digest}", file=sys.stderr)
    return recorded is None or recorded == digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    span_dir = args.out / f"spans-{args.workload}-{args.seed}"
    if args.trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        tracing.install(tracer, span_dir)
    # the constructor's calibration reading is not set-up work
    constructed = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.out)
    calibrating_s = time.perf_counter() - constructed
    try:
        workload.setup()
        setup_s = time.perf_counter() - STARTED - calibrating_s
        setup_factor = workload.factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_factor": setup_factor}))
            return 0
        tracer.reset()
        start = time.perf_counter()
        m = workload.measure()
        end = time.perf_counter()
        peak = workload.peak_rss_mb()
        attempted, failed, records = workload.check(m)
    finally:
        workload.close()
    correct = failed == 0 and digest_ok(args.workload, args.seed, args.seconds, records)
    result = {
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "timed_s": end - start,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": end_to_end(m, peak, calibrated=True),
        "raw_metrics": end_to_end(m, peak, calibrated=False),
    }
    if args.trace:
        tracer.flush(span_dir / "benchmark.jsonl")
        table = tracing.layer_table(tracing.read_spans(span_dir), start, end)
        extra = dict(m.extra, instructions=m.instructions)
        result["layers"] = tracing.layer_metrics(table, end - start, extra)
        title = f"{args.workload} seed {args.seed}"
        (args.out / f"layers-{args.workload}-{args.seed}.md").write_text(
            tracing.render_table(title, table, end - start)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
