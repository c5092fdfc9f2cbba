"""The ``repro lint`` subcommand.

Exit codes follow the convention of the other gates in this repo:

* ``0`` — no findings;
* ``1`` — at least one finding (accept one only with an inline
  ``# repro: allow[RULE] -- reason``);
* ``2`` — configuration problem (missing/invalid layers.toml, a
  hot-zone or process-role entry that names no function, bad rule
  filter, unreadable paths, an ``--explain`` target that matches no
  finding).

Every run is one uncached pass over the tree (see
:mod:`repro.analysis.engine`).  ``--graph-out FILE`` writes the
canonical call-graph artifact; ``--explain path:line:RULE`` prints the
call chain behind one interprocedural finding; ``--explain-new-out
FILE`` writes the chains of every finding (what CI attaches to a
failing run).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.analysis.config import DEFAULT_CONFIG_PATH, load_config
from repro.analysis.engine import AnalysisEngine
from repro.analysis.findings import Finding
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
    parser.add_argument(
        "--graph-out",
        default=None,
        metavar="FILE",
        help="write the canonical call-graph JSON artifact to FILE",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="PATH:LINE:RULE",
        help="print the call chain behind one finding "
             "(e.g. src/repro/steering/demand.py:42:HOT001)",
    )
    parser.add_argument(
        "--explain-new-out",
        default=None,
        metavar="FILE",
        help="write --explain style chains for every finding to FILE",
    )


def _chain_lines(
    finding: Finding, root: pathlib.Path, repo_root: pathlib.Path
) -> list[str]:
    """Render one finding's call chain as indented file:line hops."""
    lines = [
        f"{finding.path}:{finding.line}:{finding.col}: "
        f"{finding.rule} {finding.message}"
    ]
    if not finding.chain:
        lines.append("  (no recorded call chain: per-file finding)")
        return lines
    lines.append("  call chain:")
    for index, (node, line) in enumerate(finding.chain):
        module_path, _, qualname = node.partition("::")
        try:
            display = (root / module_path).resolve().relative_to(
                repo_root
            ).as_posix()
        except ValueError:
            display = module_path
        arrow = "    " if index == 0 else "    → "
        lines.append(f"{arrow}{qualname} ({display}:{line})")
    return lines


def _parse_explain_target(spec: str) -> tuple[str, int, str] | None:
    parts = spec.rsplit(":", 2)
    if len(parts) != 3:
        return None
    path, line, rule = parts
    try:
        return path, int(line), rule
    except ValueError:
        return None


def _unresolved_config(engine: AnalysisEngine, config_path) -> bool:
    """Report every config root naming no function; True if any."""
    unresolved = engine.analysis.unresolved_roots()
    for entry in unresolved:
        print(
            f"repro lint: {config_path}: {entry} names no function "
            "in the tree",
            file=sys.stderr,
        )
    return bool(unresolved)


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
    if _unresolved_config(engine, config_path):
        return 2

    if args.graph_out:
        pathlib.Path(args.graph_out).write_text(engine.graph_json() + "\n")

    if args.explain:
        target = _parse_explain_target(args.explain)
        if target is None:
            print(
                "repro lint: --explain wants PATH:LINE:RULE "
                f"(got {args.explain!r})",
                file=sys.stderr,
            )
            return 2
        path, line, rule = target
        matches = [
            f for f in findings
            if f.path == path and f.line == line and f.rule == rule
        ]
        if not matches:
            print(
                f"repro lint: no finding at {path}:{line} for {rule} "
                "in this run",
                file=sys.stderr,
            )
            return 2
        for finding in matches:
            print("\n".join(_chain_lines(finding, root, repo_root)))
        return 0

    result = LintResult(findings=findings, files_checked=engine.files_checked)
    text = render_json(result) if args.format == "json" else render_human(result)
    print(text)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
    if args.explain_new_out:
        blocks = [
            "\n".join(_chain_lines(f, root, repo_root)) for f in findings
        ]
        pathlib.Path(args.explain_new_out).write_text(
            ("\n\n".join(blocks) + "\n") if blocks else "no new findings\n"
        )
    return 0 if result.ok else 1
