"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds T --trace 0|1``, run from the root of a checkout.

Compiles the bytecode of ``src`` and of this directory first, so no
``.pyc`` write lands in a timed run, then starts each measurement in a
fresh process (``harness.py``) with ``src`` on ``PYTHONPATH`` and the
BLAS/OpenMP thread pools capped at one thread.

``--trace 0`` runs one full measurement and ``SETUP_REPEATS - 1`` more
set-ups, and reports the end-to-end metrics with ``setup_s`` as the median
set-up.  ``--trace 1`` runs one untraced and one traced measurement at the
same seed and reports the per-layer metrics, with ``trace.overhead_pct``
the traced timed phase against the untraced one.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: generated files (span files, layer tables, server scratch directories).
OUT = HERE / "out"
#: set-ups timed per untraced run, half before and half after the full
#: measurement, so they sample the host at different times; ``setup_s``
#: is their median.
SETUP_REPEATS = 5
#: a single measurement process may take this long before it is killed.
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update({var: "1" for var in THREAD_VARS})
    # one hash seed: identical dict and set layouts in every process
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, trace: int, setup_only: bool = False) -> dict:
    """One ``harness.py`` process; returns its JSON result line.

    The child gets its own session, so a timeout kills it together with
    any server process it forked.
    """
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(OUT),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{args.workload}: measurement timed out")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: measurement exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "fuzz", "sim", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE.relative_to(ROOT))],
        cwd=ROOT, stdout=sys.stderr,
    )
    if compiled.returncode != 0:
        return 2

    if args.trace:
        plain = run_child(args, trace=0)
        result = run_child(args, trace=1)
        overhead = 100 * (result["timed_s"] / plain["timed_s"] - 1)
        layers = dict(result["layers"], **{"trace.overhead_pct": [overhead, "%"]})
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        ok = [plain, result]
    else:
        half = (SETUP_REPEATS - 1) // 2
        setups = [run_child(args, trace=0, setup_only=True) for _ in range(half)]
        result = run_child(args, trace=0)
        setups += [result] + [
            run_child(args, trace=0, setup_only=True)
            for _ in range(SETUP_REPEATS - 1 - half)
        ]
        raw = {"setup_s": (statistics.median(r["setup_s"] for r in setups), "s")}
        raw.update(result["raw_metrics"])
        print(json.dumps({"raw_metrics": raw}), file=sys.stderr)
        metrics = {"setup_s": {
            "value": statistics.median(r["setup_s"] * r["setup_factor"] for r in setups),
            "unit": "s",
        }}
        metrics.update(
            {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
        )
        ok = [result]
    print(json.dumps({
        "correct": all(r["correct"] for r in ok),
        "attempted": sum(r["attempted"] for r in ok),
        "failed": sum(r["failed"] for r in ok),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
