"""The ``repro lint`` subcommand.

Exit codes follow the convention of the other gates in this repo:

* ``0`` — no findings;
* ``1`` — at least one finding (accept one only with an inline
  ``# repro: allow[RULE] -- reason``);
* ``2`` — configuration problem (missing/invalid layers.toml, a
  hot-zone entry that names no function, bad rule filter, unreadable
  paths).

Every run is one uncached pass over the tree (see
:mod:`repro.analysis.engine`).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.analysis.config import DEFAULT_CONFIG_PATH, load_config
from repro.analysis.engine import AnalysisEngine
from repro.analysis.report import LintResult, render_human, render_json
from repro.analysis.rules import RULE_REGISTRY, all_rules
from repro.errors import ConfigurationError

__all__ = ["add_lint_arguments", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="layer/hot-zone table (default: analysis/layers.toml)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (json is what CI uploads)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=None,
        help="write the report to a file as well as stdout-on-failure",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="run only these rule ids (default: every registered rule)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="package root directory module paths are relative to "
             "(default: <repo>/src)",
    )


def run_lint(args: argparse.Namespace) -> int:
    repo_root = pathlib.Path.cwd()
    root = pathlib.Path(args.root) if args.root else repo_root / "src"
    config_path = (
        pathlib.Path(args.config) if args.config else repo_root / DEFAULT_CONFIG_PATH
    )

    try:
        config = load_config(config_path)
    except ConfigurationError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    rules = all_rules()
    if args.rules:
        wanted = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in wanted if r not in RULE_REGISTRY]
        if unknown:
            print(
                f"repro lint: unknown rule id(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(RULE_REGISTRY))}",
                file=sys.stderr,
            )
            return 2
        rules = [RULE_REGISTRY[r] for r in wanted]

    paths = [pathlib.Path(p) for p in args.paths] or [root / config.package]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro lint: no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    engine = AnalysisEngine(config, root=root, repo_root=repo_root, rules=rules)
    findings = engine.run(paths)
    for entry in engine.unresolved:
        print(
            f"repro lint: {config_path}: {entry} names no function "
            "in the tree",
            file=sys.stderr,
        )
    if engine.unresolved:
        return 2

    result = LintResult(findings=findings, files_checked=engine.files_checked)
    text = render_json(result) if args.format == "json" else render_human(result)
    print(text)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
    return 0 if result.ok else 1
