"""Reporters for ``repro lint``: a human summary and a JSON document.

The JSON document is the machine interface CI consumes (uploaded as the
``lint-findings`` artifact) and the fixture tests assert against; the
human format groups findings by file with ``path:line:col RULE message``
lines that terminals and editors hyperlink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.rules import RULE_REGISTRY

__all__ = ["LintResult", "render_human", "render_json"]

#: JSON document schema version (3: one ``findings`` list).
REPORT_VERSION = 3


@dataclass(slots=True)
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def render_human(result: LintResult) -> str:
    lines: list[str] = []
    by_path: dict[str, list[Finding]] = {}
    for f in result.findings:
        by_path.setdefault(f.path, []).append(f)
    for path in sorted(by_path):
        lines.append(path)
        for f in sorted(by_path[path], key=Finding.sort_key):
            lines.append(f"  {f.path}:{f.line}:{f.col}: {f.rule} {f.message}")
        lines.append("")
    lines.append(
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
    )
    if result.findings:
        lines.append(
            "findings fail the run; fix them, or accept one with "
            "'# repro: allow[RULE] -- reason' on its line"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    families = sorted({r.family for r in RULE_REGISTRY.values()})
    per_rule: dict[str, int] = {}
    for f in result.findings:
        per_rule[f.rule] = per_rule.get(f.rule, 0) + 1
    doc = {
        "version": REPORT_VERSION,
        "ok": result.ok,
        "files_checked": result.files_checked,
        "families": families,
        "counts": {
            "total": len(result.findings),
            "by_rule": dict(sorted(per_rule.items())),
        },
        "findings": [f.to_dict() for f in result.findings],
    }
    return json.dumps(doc, indent=2)
