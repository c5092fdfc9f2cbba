"""The ``repro lint`` subcommand.

Exit codes follow the convention of the other gates in this repo:

* ``0`` — no *new* findings (baselined findings are reported, not fatal);
* ``1`` — at least one finding outside the committed baseline;
* ``2`` — configuration problem (missing/invalid layers.toml, a
  hot-zone or process-role entry that names no function, bad rule
  filter, unreadable paths, an ``--explain`` target that matches no
  finding).

``--update-baseline`` rewrites ``analysis/baseline.json`` with exactly
the findings of this run, prints every stale entry it pruned, and exits
0 — the ratchet operation after fixing (or deliberately accepting)
findings.

``--changed`` restricts the per-file phase to files changed since
``git merge-base HEAD origin/main`` *plus their reverse call-graph
dependents* — the set whose findings can actually differ.  The call
graph itself is still built over the whole package (a partial graph
would resolve calls wrongly), but summaries are content-cached, so the
warm cost is a cache sweep, not a re-analysis.

``--graph-out FILE`` writes the canonical call-graph artifact;
``--explain path:line:RULE`` prints the call chain behind one
interprocedural finding; ``--explain-new-out FILE`` writes the chains of
every *new* finding (what CI attaches to a failing run).
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

from repro.analysis.baseline import load_baseline, partition, save_baseline
from repro.analysis.config import DEFAULT_CONFIG_PATH, load_config
from repro.analysis.engine import AnalysisEngine
from repro.analysis.findings import Finding
from repro.analysis.report import LintResult, render_human, render_json
from repro.analysis.rules import RULE_REGISTRY, all_rules
from repro.errors import ConfigurationError

__all__ = ["add_lint_arguments", "run_lint"]

#: default cache location (ignored by git; ``make lint-clean`` removes it).
DEFAULT_CACHE = pathlib.Path(".analysis-cache") / "findings.json"


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
        "--baseline",
        default=None,
        help="committed baseline file (default: analysis/baseline.json; "
             "'none' disables baselining)",
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
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline with this run's findings (printing any "
             "pruned stale entries) and exit 0",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the per-file result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default: {DEFAULT_CACHE.parent})",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="package root directory module paths are relative to "
             "(default: <repo>/src)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="analyse only files changed since merge-base with "
             "origin/main, plus their reverse call-graph dependents",
    )
    parser.add_argument(
        "--changed-base",
        default="origin/main",
        metavar="REF",
        help="ref --changed diffs against (default: origin/main)",
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
        help="write --explain style chains for every NEW finding to FILE",
    )


def _git_changed_files(repo_root: pathlib.Path, base: str) -> list[str] | None:
    """Repo-relative paths changed vs merge-base(HEAD, base), including
    uncommitted and untracked files; None when git is unusable."""
    def git(*argv: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", *argv], cwd=repo_root, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout

    merge_base = git("merge-base", "HEAD", base)
    if merge_base is None:
        return None
    diff = git("diff", "--name-only", merge_base.strip())
    untracked = git("ls-files", "--others", "--exclude-standard")
    if diff is None or untracked is None:
        return None
    return sorted({p for p in (diff + untracked).splitlines() if p})


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
    unresolved = engine.build_analysis([]).unresolved_roots()
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
    baseline_path: pathlib.Path | None
    if args.baseline == "none":
        baseline_path = None
    elif args.baseline:
        baseline_path = pathlib.Path(args.baseline)
    else:
        baseline_path = repo_root / "analysis" / "baseline.json"

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

    cache_path = None
    if not args.no_cache:
        cache_dir = (
            pathlib.Path(args.cache_dir)
            if args.cache_dir
            else repo_root / DEFAULT_CACHE.parent
        )
        cache_path = cache_dir / DEFAULT_CACHE.name

    engine = AnalysisEngine(
        config,
        root=root,
        repo_root=repo_root,
        cache_path=cache_path,
        rules=rules,
    )

    if args.changed:
        changed = _git_changed_files(repo_root, args.changed_base)
        if changed is None:
            print(
                f"repro lint: --changed needs a git checkout with "
                f"{args.changed_base!r} resolvable; falling back to a "
                "full run",
                file=sys.stderr,
            )
        else:
            changed_mods = set()
            for rel in changed:
                path = (repo_root / rel).resolve()
                if path.suffix != ".py" or not path.exists():
                    continue
                try:
                    changed_mods.add(path.relative_to(root).as_posix())
                except ValueError:
                    continue
            closure = engine.file_closure(changed_mods)
            paths = [
                root / module_path
                for module_path in sorted(closure)
                if (root / module_path).exists()
            ]
            if not paths:
                if _unresolved_config(engine, config_path):
                    return 2
                print("repro lint --changed: no analysable files changed")
                if args.graph_out:
                    pathlib.Path(args.graph_out).write_text(
                        engine.graph_json() + "\n"
                    )
                engine.save_cache()
                return 0

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

    if args.update_baseline:
        if baseline_path is None:
            print("repro lint: --update-baseline needs a baseline path",
                  file=sys.stderr)
            return 2
        try:
            previous = load_baseline(baseline_path)
        except ConfigurationError:
            previous = []
        current_fps = {f.fingerprint() for f in findings}
        pruned = [b for b in previous if b.fingerprint() not in current_fps]
        save_baseline(baseline_path, findings)
        for entry in sorted(pruned, key=Finding.sort_key):
            print(f"pruned stale baseline entry: {entry.fingerprint()}")
        print(
            f"baseline rewritten: {len(findings)} finding(s) "
            f"({len(pruned)} pruned) -> {baseline_path}"
        )
        return 0

    try:
        baseline = load_baseline(baseline_path)
    except ConfigurationError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    new, baselined, stale = partition(findings, baseline)
    result = LintResult(
        findings=findings,
        new=new,
        baselined=baselined,
        stale_baseline=stale,
        files_checked=engine.files_checked,
        cache_hits=engine.cache_hits,
        graph_cache_hits=engine.graph_cache_hits,
    )

    text = render_json(result) if args.format == "json" else render_human(result)
    print(text)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
    if args.explain_new_out:
        blocks = [
            "\n".join(_chain_lines(f, root, repo_root)) for f in new
        ]
        pathlib.Path(args.explain_new_out).write_text(
            ("\n\n".join(blocks) + "\n") if blocks else "no new findings\n"
        )
    return 0 if result.ok else 1
