"""The finding record shared by every rule and reporter."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is repository-relative with forward slashes, so findings
    (and therefore the JSON report) are identical across machines and
    operating systems.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return asdict(self)
