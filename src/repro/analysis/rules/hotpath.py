"""Hot-path rules (``HOT``): no hidden per-cycle work in the cycle loop.

The configured hot zones (``[hotzones]`` in ``analysis/layers.toml``)
name the functions executed every simulated cycle; everything they call
is per-cycle code too.  Inside that code the rules flag what costs time
on every cycle without adding a Python call, so the call budget of
``tests/core/test_cycle_budget.py`` cannot see it.

The findings come from the engine's graph phase
(:mod:`repro.analysis.reachability`), which covers declared hot zones
and hot-reachable functions alike; these registry entries give the
rules their ids, ``--rules`` selectability and a place in the catalog,
so ``check`` is a no-op.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, register


class GraphRule(Rule):
    """Marker base: produced by the engine's graph phase."""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()


@register
class HotComprehension(GraphRule):
    id = "HOT001"
    family = "hot-path"
    summary = "comprehension or generator expression in per-cycle code"


@register
class HotFString(GraphRule):
    id = "HOT003"
    family = "hot-path"
    summary = "f-string formatting in per-cycle code"


@register
class HotLambda(GraphRule):
    id = "HOT004"
    family = "hot-path"
    summary = "lambda created in per-cycle code"


@register
class HotEnumClassLoad(GraphRule):
    id = "HOT007"
    family = "hot-path"
    summary = "enum member loaded through its class (Opcode.ADD) in per-cycle code"
