"""The analysis engine: one uncached pass over the whole tree.

Each file is read, parsed and tokenized exactly once into a
:class:`~repro.analysis.rules.FileContext` (source, tree and the file's
``# repro: allow[...]`` suppressions).  Every file under the package
root is parsed, not just the target set: HOT007 resolves a name to an
enum class across modules and re-exports, so the engine derives the
package's enum index (:func:`~repro.analysis.rules.hotpath.enum_names`)
from every tree, and checks each ``[hotzones]`` entry against the tree
it names.  Then the rules check each target file, and its findings pass
through the file's inline suppressions.  Files outside the target set
report nothing.

Nothing is cached between runs and there is no findings baseline: every
run re-derives everything from the tree, and an inline
``# repro: allow[RULE] -- reason`` is the only way to accept a finding.

A file that fails to parse yields one ``ENG001`` finding instead of
crashing the run: a syntax error anywhere must not hide findings
elsewhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, all_rules
from repro.analysis.rules.hotpath import enum_names, unresolved_hotzones
from repro.analysis.suppressions import SourceComments

__all__ = ["AnalysisEngine", "PARSE_RULE_ID"]

#: rule id reserved for files the engine itself cannot analyse.
PARSE_RULE_ID = "ENG001"


class AnalysisEngine:
    """Runs the registered rules over a file tree."""

    def __init__(
        self,
        config: AnalysisConfig,
        root: str | Path,
        repo_root: str | Path | None = None,
        rules: list[Rule] | None = None,
    ) -> None:
        #: directory the package lives in (``src/``): module paths — what
        #: hot zones, scopes and layers key on — are relative to it.
        self.root = Path(root).resolve()
        #: directory findings' display paths are relative to (repo root).
        self.repo_root = (
            Path(repo_root).resolve() if repo_root is not None else self.root
        )
        self.config = config
        self.rules = rules if rules is not None else all_rules()
        self.files_checked = 0
        #: ``[hotzones]`` entries naming no function, set by :meth:`run`.
        self.unresolved: list[str] = []

    # ---------------------------------------------------------------- paths
    def module_path_of(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def display_path_of(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.repo_root).as_posix()
        except ValueError:
            return path.as_posix()

    def _package_files(self, targets: dict[str, Path]) -> list[Path]:
        """Everything under the package root, plus any explicitly
        targeted file outside it."""
        package_dir = self.root / self.config.package
        out: dict[str, Path] = {}
        if package_dir.is_dir():
            for path in package_dir.rglob("*.py"):
                out[self.module_path_of(path)] = path
        for module_path, path in targets.items():
            out.setdefault(module_path, path)
        return [out[mp] for mp in sorted(out)]

    def _targets(self, paths: list[Path]) -> dict[str, Path]:
        """Module path -> file for every file named or under a named
        directory."""
        files: list[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            else:
                files.append(path)
        return {self.module_path_of(path): path for path in files}

    # ------------------------------------------------------------- the pass
    def _load(self, path: Path, module_path: str) -> FileContext | Finding:
        """Read, parse and tokenize one file: its context, or the
        ``ENG001`` finding when it does not parse."""
        source = path.read_bytes().decode("utf-8", errors="replace")
        display_path = self.display_path_of(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return Finding(
                rule=PARSE_RULE_ID,
                path=display_path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
            )
        return FileContext(
            module_path=module_path,
            display_path=display_path,
            source=source,
            tree=tree,
            config=self.config,
            comments=SourceComments(source, tree),
        )

    def run(self, paths: list[Path]) -> list[Finding]:
        """Analyse files and directories; returns sorted findings."""
        targets = self._targets(paths)
        self.files_checked = len(targets)
        findings: list[Finding] = []
        trees: dict[str, ast.Module] = {}
        checked: list[FileContext] = []
        for path in self._package_files(targets):
            module_path = self.module_path_of(path)
            ctx = self._load(path, module_path)
            if isinstance(ctx, Finding):
                if module_path in targets:
                    findings.append(ctx)
                continue
            trees[module_path] = ctx.tree
            if module_path in targets:
                checked.append(ctx)
        enums = enum_names(trees)
        self.unresolved = unresolved_hotzones(self.config, trees)
        for ctx in checked:
            ctx.enum_names = enums[ctx.module_path]
            findings.extend(
                f
                for rule in self.rules
                for f in rule.check(ctx)
                if not ctx.comments.is_suppressed(f.rule, f.line)
            )
        findings.sort(key=Finding.sort_key)
        return findings
