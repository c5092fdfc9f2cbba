"""Record simulator throughput to a JSON artifact.

Standalone counterpart of ``bench_simulator_throughput.py`` for CI: times
the same checksum workload under the steering and ffu-only policies,
smoke-tests the parallel batch engine, and writes the cycles-per-second
numbers to ``BENCH_throughput.json`` so runs can be compared over time.

With ``--baseline`` the record is additionally diffed against a previous
run's artifact: any policy whose cycles-per-second dropped by more than
``--max-regression`` (default 20%) fails the run with exit code 1.  A
missing or unreadable baseline is tolerated (first run, cold cache).

``--max-telemetry-overhead`` additionally A/Bs the cycle loop with an
attached-but-disabled telemetry observer against no observer at all, in
interleaved pairs, and fails when the median per-pair slowdown exceeds
the given fraction; ``--trace-out`` writes a Chrome/Perfetto trace JSON
from a short instrumented run; ``--serving-baseline`` records a short HTTP load run against a
self-hosted multi-process server (``bench_serving_load``) as a
``serving`` column whose requests/sec is gated the same way.

Usage::

    PYTHONPATH=src python benchmarks/record_throughput.py [-o out.json] \
        [--baseline previous.json] [--max-regression 0.20] \
        [--max-telemetry-overhead 0.02] [--trace-out trace.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import time

from repro.core.baselines import fixed_superscalar, steering_processor
from repro.core.params import ProcessorParams
from repro.evaluation.batch import ResultCache, SimJob, run_many
from repro.workloads.kernels import checksum

_PARAMS = ProcessorParams(reconfig_latency=8)


def _throughput(factory, program, repeats: int = 3) -> dict:
    """Best-of-N cycles per wall-clock second."""
    best = 0.0
    cycles = 0
    for _ in range(repeats):
        proc = factory(program, _PARAMS)
        start = time.perf_counter()
        result = proc.run(max_cycles=100_000)
        elapsed = time.perf_counter() - start
        assert result.halted, "benchmark workload must run to completion"
        cycles = result.cycles
        best = max(best, result.cycles / elapsed)
    return {"cycles": cycles, "cycles_per_second": round(best, 1)}


def _telemetry_overhead(program, pairs: int = 31) -> dict:
    """A/B the cycle loop with telemetry disabled vs absent, in pairs.

    An attached-but-disabled :class:`ProcessorTelemetry` observer must
    normalise to ``None`` inside the processor, so the instrumented build
    pays one ``is not None`` test per hook.  The two arms run back to back
    in each pair, alternating which goes first, and the gated figure is
    the median of the per-pair slowdowns: on a shared host the speed
    drifts over seconds, and a pair samples both arms under the same
    drift where best-of-N across separate blocks does not.  The
    ``enabled`` number (full registry + series + spans) is recorded for
    the docs but never gated.
    """
    from repro.telemetry import ProcessorTelemetry, SpanTracer

    def rate(observer) -> float:
        proc = steering_processor(program, _PARAMS, observer=observer)
        start = time.perf_counter()
        result = proc.run(max_cycles=100_000)
        elapsed = time.perf_counter() - start
        assert result.halted
        return result.cycles / elapsed

    def median_ratio(make_observer, n: int) -> tuple[float, float]:
        """Median of ``observed / without`` over ``n`` alternating pairs,
        and the median rate without an observer."""
        ratios, without_rates = [], []
        for i in range(n):
            if i % 2:
                observed = rate(make_observer())
                without = rate(None)
            else:
                without = rate(None)
                observed = rate(make_observer())
            ratios.append(observed / without)
            without_rates.append(without)
        return statistics.median(ratios), statistics.median(without_rates)

    disabled, without = median_ratio(ProcessorTelemetry.disabled, pairs)
    enabled, _ = median_ratio(lambda: ProcessorTelemetry(tracer=SpanTracer()), 7)
    return {
        "pairs": pairs,
        "without_cps": round(without, 1),
        "disabled_overhead": round(max(0.0, 1.0 - disabled), 4),
        "enabled_overhead": round(max(0.0, 1.0 - enabled), 4),
    }


def _write_trace(program, path: str) -> dict:
    """Short instrumented steering run -> Chrome/Perfetto trace JSON."""
    from repro.telemetry import ProcessorTelemetry, SpanTracer

    tracer = SpanTracer()
    tel = ProcessorTelemetry(tracer=tracer, profile_stages=True)
    result = steering_processor(program, _PARAMS, observer=tel).run(
        max_cycles=100_000
    )
    tracer.write(path)
    return {
        "path": path,
        "events": len(tracer),
        "dropped": tracer.dropped,
        "cycles": result.cycles,
    }


def _batch_smoke(program) -> dict:
    """Exercise run_many with two workers + the result cache."""
    jobs = [
        SimJob("steering", program, _PARAMS, max_cycles=100_000),
        SimJob("ffu-only", program, _PARAMS, max_cycles=100_000),
    ]
    cache = ResultCache()
    start = time.perf_counter()
    first = run_many(jobs, workers=2, cache=cache)
    elapsed = time.perf_counter() - start
    again = run_many(jobs, workers=2, cache=cache)
    assert all(r.halted for r in first)
    assert [a.to_dict() for a in again] == [f.to_dict() for f in first]
    assert cache.hits == len(jobs), "resubmission must be answered from cache"
    return {
        "jobs": len(jobs),
        "workers": 2,
        "wall_seconds": round(elapsed, 3),
        "cache_hits_on_resubmit": cache.hits,
    }


def compare_to_baseline(
    record: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Regression messages for every policy slower than the baseline allows.

    Only the throughput metrics are compared; a baseline from a different
    machine or Python is still compared (CI restores the cache per runner
    image, so in practice the environments match).
    """
    failures = []
    for policy in ("steering", "ffu_only"):
        then = baseline.get(policy, {}).get("cycles_per_second")
        now = record.get(policy, {}).get("cycles_per_second")
        if not then or not now:
            continue
        drop = (then - now) / then
        if drop > max_regression:
            failures.append(
                f"{policy}: {now:.1f} cycles/sec is {drop:.1%} below "
                f"baseline {then:.1f} (allowed {max_regression:.0%})"
            )
    then = baseline.get("serving", {}).get("requests_per_second")
    now = record.get("serving", {}).get("requests_per_second")
    if then and now:
        drop = (then - now) / then
        if drop > max_regression:
            failures.append(
                f"serving: {now:.1f} requests/sec is {drop:.1%} below "
                f"baseline {then:.1f} (allowed {max_regression:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default="BENCH_throughput.json",
        help="where to write the JSON artifact",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="previous BENCH_throughput.json to diff against "
             "(missing file = no comparison)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.20,
        help="fail when cycles/sec drops by more than this fraction "
             "against the baseline (default 0.20)",
    )
    parser.add_argument(
        "--store", default=None,
        help="also register the throughput numbers as a run in this "
             "SQLite run store (see 'repro serve')",
    )
    parser.add_argument(
        "--max-telemetry-overhead", type=float, default=None,
        help="fail when an attached-but-disabled telemetry observer slows "
             "the cycle loop by more than this fraction (median of "
             "interleaved pairs; the project gate is 0.02); also records "
             "the enabled-telemetry overhead",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="write a Chrome/Perfetto trace JSON from a short "
             "instrumented steering run to this path",
    )
    parser.add_argument(
        "--serving-baseline", action="store_true",
        help="also record a short serving load run (bench_serving_load: "
             "2 API workers + sim pool, mixed read/submit) as a "
             "'serving' column whose requests/sec is gated by "
             "--max-regression",
    )
    args = parser.parse_args(argv)

    program = checksum(iterations=150).program
    record = {
        "workload": "checksum(iterations=150)",
        "reconfig_latency": _PARAMS.reconfig_latency,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "steering": _throughput(steering_processor, program),
        "ffu_only": _throughput(fixed_superscalar, program),
        "batch_engine": _batch_smoke(program),
    }
    if args.serving_baseline:
        from bench_serving_load import _hosted_load

        record["serving"] = _hosted_load(
            workers=2, sim_pool=1, clients=8, duration=4.0,
            submit_ratio=0.2, queue_capacity=8,
        )
    if args.max_telemetry_overhead is not None:
        record["telemetry"] = _telemetry_overhead(program)
    if args.trace_out:
        record["trace"] = _write_trace(program, args.trace_out)
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nwritten to {path}")

    if args.store:
        import hashlib

        from repro.serving.store import RunStore

        config_hash = hashlib.sha256(
            f"{record['workload']}|latency={record['reconfig_latency']}".encode()
        ).hexdigest()
        metrics = {
            "steering_cycles_per_second": record["steering"]["cycles_per_second"],
            "ffu_only_cycles_per_second": record["ffu_only"]["cycles_per_second"],
            "batch_wall_seconds": record["batch_engine"]["wall_seconds"],
        }
        if "serving" in record:
            metrics["serving_requests_per_second"] = record["serving"][
                "requests_per_second"
            ]
            metrics["serving_p99_ms"] = record["serving"]["p99_ms"]
        with RunStore(args.store) as store:
            run_id = store.record_run(
                "BENCH-throughput", config_hash, metrics,
                label=record["workload"],
            )
        print(f"registered run {run_id} in {args.store}")

    if args.max_telemetry_overhead is not None:
        overhead = record["telemetry"]["disabled_overhead"]
        if overhead > args.max_telemetry_overhead:
            print(
                f"REGRESSION disabled-telemetry overhead {overhead:.1%} "
                f"exceeds {args.max_telemetry_overhead:.0%}"
            )
            return 1
        print(
            f"disabled-telemetry overhead {overhead:.1%} within "
            f"{args.max_telemetry_overhead:.0%} "
            f"(enabled: {record['telemetry']['enabled_overhead']:.1%})"
        )

    if args.baseline:
        baseline_path = pathlib.Path(args.baseline)
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}; skipping comparison")
            return 0
        try:
            baseline = json.loads(baseline_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"unreadable baseline {baseline_path} ({exc}); skipping")
            return 0
        failures = compare_to_baseline(record, baseline, args.max_regression)
        if failures:
            for message in failures:
                print(f"REGRESSION {message}")
            return 1
        print(
            f"no throughput regression beyond {args.max_regression:.0%} "
            f"vs {baseline_path}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
