"""Hot-path rules (``HOT``): no allocation surprises in per-cycle code.

The configured hot zones (``[hotzones]`` in ``analysis/layers.toml``)
name the functions executed every simulated cycle — the fast-path cycle
loop, the wake-up/select kernel, the RUU, the availability cache and the
steering per-cycle path.  Inside them, constructs that allocate on every
call are findings; code inside a ``raise`` statement is exempt (error
paths are cold by definition).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, register

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_CONTAINER_BUILTINS = {"dict", "list", "set"}

#: receiver spellings the telemetry/observer-guard rule recognises.
_TELEMETRY_NAMES = {
    "tel", "telemetry", "_telemetry", "obs", "observer", "_observer",
}


def _iter_hot_nodes(ctx: FileContext) -> Iterable[ast.AST]:
    for fn in ctx.hot_function_nodes():
        yield from ast.walk(fn)


@register
class HotComprehension(Rule):
    id = "HOT001"
    family = "hot-path"
    summary = "comprehension or generator expression in a hot zone"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in _iter_hot_nodes(ctx):
            if isinstance(node, _COMPREHENSIONS) and not ctx.in_raise(node):
                kind = type(node).__name__
                yield ctx.finding(
                    self.id,
                    node,
                    f"{kind} allocates on every call in a hot zone; hoist "
                    "it, reuse a scratch container, or defer to a snapshot "
                    "path",
                )


@register
class HotContainerCall(Rule):
    id = "HOT002"
    family = "hot-path"
    summary = "dict()/list()/set() constructor call in a hot zone"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in _iter_hot_nodes(ctx):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _CONTAINER_BUILTINS
                and not ctx.in_raise(node)
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    f"{node.func.id}() allocates a fresh container each "
                    "cycle; reuse a preallocated one (clear()/update()) or "
                    "hoist it out of the per-cycle path",
                )


@register
class HotFString(Rule):
    id = "HOT003"
    family = "hot-path"
    summary = "f-string formatting in a hot zone"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in _iter_hot_nodes(ctx):
            if isinstance(node, ast.JoinedStr) and not ctx.in_raise(node):
                yield ctx.finding(
                    self.id,
                    node,
                    "f-string builds a new str every cycle; format lazily "
                    "(rendering/debug helpers) or move it behind the "
                    "telemetry guard",
                )


@register
class HotLambda(Rule):
    id = "HOT004"
    family = "hot-path"
    summary = "lambda created in a hot zone"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in _iter_hot_nodes(ctx):
            if isinstance(node, ast.Lambda) and not ctx.in_raise(node):
                yield ctx.finding(
                    self.id,
                    node,
                    "lambda allocates a function object per call; hoist it "
                    "to module scope or a bound method",
                )


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` decorator of a class, if present."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return dec
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return dec
    return None


@register
class HotDataclassSlots(Rule):
    id = "HOT005"
    family = "hot-path"
    summary = "dataclass without slots=True in a hot-zone file"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.config.hot_functions(ctx.module_path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            dec = _dataclass_decorator(node)
            if dec is None:
                continue
            has_slots = isinstance(dec, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in dec.keywords
            )
            if not has_slots:
                yield ctx.finding(
                    self.id,
                    node,
                    f"dataclass {node.name} in a hot-zone file lacks "
                    "slots=True; instances pay a per-object __dict__",
                )


def _telemetry_symbol(call: ast.Call) -> str | None:
    """The telemetry receiver symbol of a call, if it looks like one.

    Matches ``tel.on_cycle(...)``, ``obs.on_stage(...)``,
    ``telemetry.foo(...)`` and ``self._observer.foo(...)`` — returns the
    symbol a guard must test (one of :data:`_TELEMETRY_NAMES`).
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    recv = func.value
    if isinstance(recv, ast.Name) and recv.id in _TELEMETRY_NAMES:
        return recv.id
    if isinstance(recv, ast.Attribute) and recv.attr in _TELEMETRY_NAMES:
        return recv.attr
    return None


def _mentions(tree: ast.expr, symbol: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == symbol:
            return True
        if isinstance(node, ast.Attribute) and node.attr == symbol:
            return True
    return False


@register
class HotUnguardedTelemetry(Rule):
    id = "HOT006"
    family = "hot-path"
    summary = "telemetry/observer call in a hot zone without a None guard"
    version = 2

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in _iter_hot_nodes(ctx):
            if not isinstance(node, ast.Call):
                continue
            symbol = _telemetry_symbol(node)
            if symbol is None:
                continue
            guarded = any(
                isinstance(a, (ast.If, ast.IfExp)) and _mentions(a.test, symbol)
                for a in ctx.ancestors(node)
            )
            if not guarded:
                yield ctx.finding(
                    self.id,
                    node,
                    f"observer call on {symbol!r} must sit behind the "
                    "one-None-check pattern "
                    "(obs = self.observer; if obs is not None: ...)",
                )
