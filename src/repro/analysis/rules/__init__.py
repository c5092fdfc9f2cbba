"""Rule registry and the per-file context every rule checks against.

A rule is a small stateless object with an ``id`` (``LAY001``), a
``family`` (``layering``), a one-line ``summary`` for the catalog, and a
``check(ctx)`` generator yielding :class:`Finding` records.  Importing
this package registers the five families: hot-path ``HOT``, determinism
``DET``, concurrency ``CON``, layering ``LAY`` and observability
``OBS``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.suppressions import SourceComments

__all__ = ["FileContext", "Rule", "RULE_REGISTRY", "all_rules", "register"]


@dataclass(slots=True)
class FileContext:
    """Everything a rule may ask about one source file.

    The engine builds one per file per run: the file is read, parsed and
    tokenized once, and the per-file rules, the module summary and the
    graph findings all read this context.
    """

    #: path relative to the analysis root (``repro/sched/ruu.py``) —
    #: what the config's hot zones, scopes and layers are keyed by.
    module_path: str
    #: repo-relative path used in findings (``src/repro/sched/ruu.py``).
    display_path: str
    source: str
    tree: ast.Module
    config: AnalysisConfig
    #: the file's ``# repro:`` suppressions and cold-call annotations.
    comments: SourceComments
    _parents: dict[ast.AST, ast.AST] | None = field(default=None, repr=False)

    # ------------------------------------------------------------ structure
    def parent_map(self) -> dict[ast.AST, ast.AST]:
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        parents = self.parent_map()
        while node in parents:
            node = parents[node]
            yield node

    # ------------------------------------------------------------- findings
    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule_id,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Rule:
    """Base class: subclass, set the metadata, implement ``check``."""

    id: str = ""
    family: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


#: every registered rule, by id.
RULE_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to the registry."""
    rule = cls()
    if not rule.id or not rule.family:
        raise ValueError(f"rule {cls.__name__} must define id and family")
    if rule.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULE_REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Registered rules in id order (deterministic check order)."""
    return [RULE_REGISTRY[rule_id] for rule_id in sorted(RULE_REGISTRY)]


# populate the registry ----------------------------------------------------
from repro.analysis.rules import (  # noqa: E402  (registration side effects)
    concurrency,
    determinism,
    hotpath,
    layering,
    observability,
)
