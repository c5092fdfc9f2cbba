"""Registry entries for the whole-program (call-graph) rules.

These rules are *driven by the graph phase of the engine*, not by the
per-file ``check`` walk — registering them here gives them stable ids,
versions folded into the cache fingerprint, ``--rules`` selectability and
a place in the catalog.  ``check`` is therefore a no-op; the findings are
produced by :class:`repro.analysis.dataflow.GraphAnalysis`.

The interprocedural HOT findings reuse the HOT001–HOT006 ids (an
allocation is an allocation, whether the per-file pass or the graph pass
saw it); only the determinism-taint and cross-process rules are new ids.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, register


class GraphRule(Rule):
    """Marker base: produced by the engine's graph phase."""

    graph = True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()


@register
class TaintedStateRule(GraphRule):
    id = "DET006"
    family = "determinism"
    summary = (
        "nondeterministic value (clock/RNG/env/id), laundered through at "
        "least one call, stored into simulation state"
    )
    version = 1


@register
class TaintedCanonicalSinkRule(GraphRule):
    id = "DET007"
    family = "determinism"
    summary = "nondeterministic value reaches a canonical-JSON sink"
    version = 1


@register
class CrossProcessReadRule(GraphRule):
    id = "CON006"
    family = "concurrency"
    summary = (
        "module state read in one process domain but mutated in another "
        "without a RunStore scope or explicit queue"
    )
    version = 1


@register
class UnattributedMutationRule(GraphRule):
    id = "CON007"
    family = "concurrency"
    summary = (
        "module state mutated by a function no declared process role "
        "reaches (ownership unprovable)"
    )
    version = 1
