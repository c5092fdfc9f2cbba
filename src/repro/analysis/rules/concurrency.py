"""Concurrency rules (``CON``): the serving layer stays thread-safe.

The HTTP API is a threaded server sharing one SQLite connection, one
result cache and one job queue; the batch engine shares module state
with worker processes.  Within the ``[scopes] concurrency`` table
(``serving/`` and ``evaluation/batch.py``) these rules enforce the
store's locking discipline and guard shared module state; a race there
passes every single-threaded test.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, register

#: attribute names that identify a SQLite connection/cursor receiver.
_SQLITE_RECEIVERS = {"_conn", "conn", "_cursor", "cursor", "_db", "db"}

#: connection methods that touch the database.
_SQLITE_METHODS = {
    "execute",
    "executemany",
    "executescript",
    "commit",
    "rollback",
    "fetchone",
    "fetchall",
}

#: container methods that mutate in place.
_MUTATORS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "__setitem__",
}


def _in_scope(ctx: FileContext) -> bool:
    return ctx.config.in_scope(ctx.module_path, ctx.config.concurrency_scope)


def _mentions_lock(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and "lock" in name.lower():
            return True
    return False


def _under_lock(ctx: FileContext, node: ast.AST) -> bool:
    """Whether ``node`` sits inside ``with <something lock-ish>:``."""
    return any(
        isinstance(a, ast.With)
        and any(_mentions_lock(item.context_expr) for item in a.items)
        for a in ctx.ancestors(node)
    )


#: with-scopes that carry the store's connection discipline: ``_read()``
#: is an autocommit WAL snapshot, ``_write()`` a lock-held short
#: transaction (see RunStore).
_SCOPE_METHODS = {"_read", "_write"}

#: functions allowed to touch a connection bare: the scope
#: implementations themselves plus connection setup.
_SCOPE_IMPLEMENTATIONS = {"_read", "_write", "_connect", "_connection"}


def _under_store_scope(ctx: FileContext, node: ast.AST) -> bool:
    """Inside ``with self._read() as conn:`` / ``with self._write()``."""
    for a in ctx.ancestors(node):
        if not isinstance(a, ast.With):
            continue
        for item in a.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _SCOPE_METHODS
            ):
                return True
    return False


def _enclosing_function(ctx: FileContext, node: ast.AST):
    return next(
        (
            a
            for a in ctx.ancestors(node)
            if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
        ),
        None,
    )


@register
class SqliteOutsideLock(Rule):
    id = "CON001"
    family = "concurrency"
    summary = "SQLite connection used outside the store's scopes"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not _in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in _SQLITE_METHODS
            ):
                continue
            recv = func.value
            recv_name = None
            if isinstance(recv, ast.Attribute):
                recv_name = recv.attr
            elif isinstance(recv, ast.Name):
                recv_name = recv.id
            if recv_name not in _SQLITE_RECEIVERS:
                continue
            if _under_lock(ctx, node) or _under_store_scope(ctx, node):
                continue
            owner = _enclosing_function(ctx, node)
            if owner is not None and owner.name in _SCOPE_IMPLEMENTATIONS:
                continue  # the scope machinery itself
            yield ctx.finding(
                self.id,
                node,
                f"{recv_name}.{func.attr}() outside 'with self._lock:' or "
                "the store's _read()/_write() scopes races other "
                "threads/processes; use the store's scoped methods",
            )


def _module_mutables(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to mutable containers -> definition line."""
    out: dict[str, int] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        is_mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
        )
        if not is_mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = stmt.lineno
    return out


@register
class UnlockedModuleState(Rule):
    id = "CON002"
    family = "concurrency"
    summary = "shared module state mutated without a lock"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not _in_scope(ctx):
            return
        mutables = _module_mutables(ctx.tree)
        # names rebound via `global` inside functions are shared state too
        globals_declared: set[str] = {
            name
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        shared = set(mutables) | globals_declared
        if not shared:
            return
        for node in ast.walk(ctx.tree):
            hit = None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutables
            ):
                hit = f"{node.func.value.id}.{node.func.attr}()"
            elif (
                isinstance(node, (ast.Assign, ast.AugAssign))
                and self._assigns_global(node, globals_declared, ctx)
            ):
                hit = f"reassignment of global {self._assigns_global(node, globals_declared, ctx)!r}"
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in mutables
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                hit = f"{node.value.id}[...] assignment"
            if hit is None:
                continue
            # only mutations from function bodies race; module top-level
            # runs once at import under the import lock
            in_function = any(
                isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
                for a in ctx.ancestors(node)
            )
            if in_function and not _under_lock(ctx, node):
                yield ctx.finding(
                    self.id,
                    node,
                    f"{hit} mutates shared module state without holding a "
                    "lock; guard it with a module-level threading.Lock",
                )

    @staticmethod
    def _assigns_global(node: ast.AST, declared: set[str], ctx: FileContext) -> str | None:
        if not declared:
            return None
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in declared:
                # only inside a function that declares it global
                for a in ctx.ancestors(node):
                    if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if any(
                            isinstance(s, ast.Global) and target.id in s.names
                            for s in ast.walk(a)
                        ):
                            return target.id
                        break
        return None
