"""Static-analysis wall clock (``BENCH_lint.json``).

``repro lint`` is one uncached pass: every file under the package is
read, parsed and tokenized once, checked by the per-file rules,
summarised into the call graph, and given its interprocedural findings.
This bench times that whole-tree pass (the best of ``--repeats`` runs),
which is what every lint invocation, local or CI, costs.

Usage:

    PYTHONPATH=src python benchmarks/bench_lint.py \
        [-o BENCH_lint.json] [--repeats 3] [--max-seconds 0]

``--max-seconds`` > 0 turns the wall clock into a gate (the CI
budget).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.config import DEFAULT_CONFIG_PATH, load_config  # noqa: E402
from repro.analysis.engine import AnalysisEngine  # noqa: E402


def lint_record(repeats: int) -> dict:
    config = load_config(REPO_ROOT / DEFAULT_CONFIG_PATH)
    root = REPO_ROOT / "src"
    best = float("inf")
    for _ in range(repeats):
        engine = AnalysisEngine(config, root=root, repo_root=REPO_ROOT)
        start = time.perf_counter()
        findings = engine.run([root / config.package])
        best = min(best, time.perf_counter() - start)
    return {
        "files": engine.files_checked,
        "findings": len(findings),
        "seconds": round(best, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_lint.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--max-seconds", type=float, default=0.0,
        help="fail when the whole-tree pass exceeds this wall clock; "
             "<= 0 disables the gate",
    )
    args = parser.parse_args(argv)

    record = lint_record(repeats=max(1, args.repeats))
    pathlib.Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {args.output}")

    if 0 < args.max_seconds < record["seconds"]:
        print(
            f"REGRESSION lint took {record['seconds']}s, over the "
            f"{args.max_seconds}s budget"
        )
        return 1
    print(f"lint: {record['seconds']}s over {record['files']} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
