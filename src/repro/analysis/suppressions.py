"""The ``# repro:`` comments of one file: suppressions and cold calls.

A suppression names the rule(s) it silences — ``# repro: allow[HOT003]``
or ``# repro: allow[HOT001,DET004]`` — and applies to:

* the line it sits on (trailing-comment style), or — when the comment
  has a line of its own — the line directly below it (comment-above
  style; a *trailing* comment never leaks onto the next line);
* the entire definition, when it sits on a ``def``/``class`` header, one
  of its decorator lines, or anywhere in the contiguous comment block
  directly above the header — the idiom for "every telemetry call in
  this function is justified" without one comment per call, with room
  for a multi-line justification.

Blanket suppression is deliberately impossible: there is no bare
``allow`` form and no ``allow[*]``; every silenced finding names the
rule it silences, so ``grep 'repro: allow'`` is a complete audit.  An
inline suppression is the only way to accept a finding.

The sibling annotation ``# repro: cold-call -- reason`` marks one *call
site* (the line it sits on, or the next code line for a comment-only
line) as cold for the whole-program hot-zone reachability pass: the edge
it annotates does not propagate hot-path obligations.  The reason is
mandatory — an annotation without one is reported as ``ENG002`` rather
than silently ignored.

:class:`SourceComments` reads both kinds in one :mod:`tokenize` pass, and
skips the pass for a file whose source does not contain ``repro:``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize

__all__ = ["SourceComments"]

#: the comment grammar; ids are comma-separated rule names.
_PATTERN = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s-]+)\]")

#: cold-call edge annotations: ``# repro: cold-call -- reason``.
_COLD_PATTERN = re.compile(r"#\s*repro:\s*cold-call(?:\s*--\s*(\S.*))?")


class SourceComments:
    """One file's suppressions and cold-call annotations.

    ``cold_calls`` maps the line of each annotated *call* to its reason;
    ``malformed_cold`` lists the lines of annotations missing the
    mandatory ``-- reason``.
    """

    __slots__ = ("_by_line", "_own_line", "_scoped", "cold_calls", "malformed_cold")

    def __init__(self, source: str, tree: ast.AST | None) -> None:
        #: line -> rule ids suppressed by a comment on it.
        self._by_line: dict[int, frozenset[str]] = {}
        self.cold_calls: dict[int, str] = {}
        self.malformed_cold: list[int] = []
        #: comment-*only* lines (suppressing or not): their suppressions
        #: apply one line down, and scoped lookup walks a contiguous
        #: block of them above a definition header.
        own_line: set[int] = set()
        lines: list[str] | None = None
        # both comment kinds start with ``repro:``; most files hold
        # neither, and their scan would find nothing
        tokens = (
            tokenize.generate_tokens(io.StringIO(source).readline)
            if "repro:" in source
            else ()
        )
        try:
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                line = tok.start[0]
                comment_only = tok.line[: tok.start[1]].strip() == ""
                if comment_only:
                    own_line.add(line)
                match = _PATTERN.search(tok.string)
                if match is not None:
                    ids = frozenset(
                        part.strip()
                        for part in match.group(1).split(",")
                        if part.strip()
                    )
                    if ids:
                        self._by_line[line] = (
                            self._by_line.get(line, frozenset()) | ids
                        )
                cold = _COLD_PATTERN.search(tok.string)
                if cold is None:
                    continue
                reason = cold.group(1)
                if reason is None or not reason.strip():
                    self.malformed_cold.append(line)
                    continue
                if comment_only:
                    if lines is None:
                        lines = source.splitlines()
                    line = _next_code_line(lines, line)
                self.cold_calls[line] = reason.strip()
        except (tokenize.TokenizeError, SyntaxError, IndentationError):
            # the engine reports unparsable files through its own channel
            pass
        self._own_line = frozenset(own_line)
        #: (first line, last line, rule ids) per suppressed definition.
        self._scoped: list[tuple[int, int, frozenset[str]]] = []
        if tree is not None and self._by_line:
            self._collect_scoped(tree)

    def _collect_scoped(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            header_lines = [node.lineno]
            header_lines.extend(d.lineno for d in node.decorator_list)
            ids: frozenset[str] = frozenset()
            for line in header_lines:
                ids |= self._by_line.get(line, frozenset())
            # the contiguous comment block above the header (or above
            # the first decorator) — multi-line justifications welcome
            above = min(header_lines) - 1
            while above in self._own_line:
                ids |= self._by_line.get(above, frozenset())
                above -= 1
            if ids:
                start = min(header_lines)
                end = node.end_lineno or node.lineno
                self._scoped.append((start, end, ids))

    def is_suppressed(self, rule: str, line: int) -> bool:
        direct = self._by_line.get(line, frozenset())
        if line - 1 in self._own_line:  # comment-above, not trailing
            direct = direct | self._by_line.get(line - 1, frozenset())
        if rule in direct:
            return True
        return any(
            start <= line <= end and rule in ids
            for start, end, ids in self._scoped
        )


def _next_code_line(lines: list[str], after: int) -> int:
    """The first line below 1-indexed line ``after`` that is neither blank
    nor a comment (so a cold-call reason may wrap onto several comment
    lines); ``after + 1`` when there is none."""
    for offset in range(after, len(lines)):
        stripped = lines[offset].strip()
        if stripped and not stripped.startswith("#"):
            return offset + 1  # 1-indexed
    return after + 1
