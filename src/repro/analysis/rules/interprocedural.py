"""Registry entries for the whole-program (call-graph) rules.

These rules are *driven by the graph phase of the engine*, not by the
per-file ``check`` walk — registering them here gives them stable ids,
``--rules`` selectability and a place in the catalog.  ``check`` is therefore a no-op; the findings are
produced by :class:`repro.analysis.dataflow.GraphAnalysis`.

The interprocedural HOT findings reuse the HOT001–HOT006 ids (an
allocation is an allocation, whether the per-file pass or the graph pass
saw it).  HOT007 is graph-only: whether a name is an enum class is known
only once imports are linked, so the graph phase reports it for declared
hot zones and hot-reachable functions alike.
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
class HotEnumClassLoad(GraphRule):
    id = "HOT007"
    family = "hot-path"
    summary = (
        "enum member loaded through its class (Opcode.ADD) in a hot zone "
        "or hot-reachable function"
    )


@register
class TaintedStateRule(GraphRule):
    id = "DET006"
    family = "determinism"
    summary = (
        "nondeterministic value (clock/RNG/env/id), laundered through at "
        "least one call, stored into simulation state"
    )


@register
class TaintedCanonicalSinkRule(GraphRule):
    id = "DET007"
    family = "determinism"
    summary = "nondeterministic value reaches a canonical-JSON sink"


@register
class CrossProcessReadRule(GraphRule):
    id = "CON006"
    family = "concurrency"
    summary = (
        "module state read in one process domain but mutated in another "
        "without a RunStore scope or explicit queue"
    )


@register
class UnattributedMutationRule(GraphRule):
    id = "CON007"
    family = "concurrency"
    summary = (
        "module state mutated by a function no declared process role "
        "reaches (ownership unprovable)"
    )
