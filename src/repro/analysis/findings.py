"""The finding record shared by every rule and reporter."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is repository-relative with forward slashes, so findings
    (and therefore the JSON report) are identical across machines and
    operating systems.

    Interprocedural findings additionally carry ``chain``: the call path
    that produced them, as ``(node id, line)`` hops from the root (hot
    zone or taint source) down to the function the finding lives in.
    ``repro lint --explain`` renders it; it takes no part in equality.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    chain: tuple[tuple[str, int], ...] = field(default=(), compare=False)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        record = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.chain:
            record["chain"] = [[node, line] for node, line in self.chain]
        return record
