"""Hot-zone reachability: the hot-path rules over the call graph.

The hot zones declared in ``analysis/layers.toml`` are roots; every
function reachable from one over the graph's resolved, non-cold edges
(see :mod:`repro.analysis.graph`) is per-cycle code too.  Each such
function — the declared roots included — reports its effect sites
(``HOT001`` comprehensions, ``HOT003`` f-strings, ``HOT004`` lambdas)
and its enum members loaded through their class (``HOT007``).  Functions
whose body only raises are exempt, as is code inside a ``raise``:
error paths may allocate.  A finding away from its root names the call
path (``Processor.step → DemandSteering.cycle → ...``) both in its
message and in its ``chain`` field, which ``repro lint --explain``
renders with file:line hops.
"""

from __future__ import annotations

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.graph import CallGraph
from repro.analysis.suppressions import SourceComments

__all__ = ["GraphAnalysis"]


class GraphAnalysis:
    """Hot reachability over one call graph, derived per file by
    :meth:`findings_for`."""

    def __init__(self, graph: CallGraph, config: AnalysisConfig) -> None:
        self.graph = graph
        self.config = config
        #: node id -> chain [[caller node, call line], ...] from a hot root.
        self.hot_chains = graph.reachable_from(self._hot_roots())

    def _hot_roots(self) -> list[str]:
        roots: list[str] = []
        for mp, spec in sorted(self.config.hotzones.items()):
            summary = self.graph.summaries.get(mp)
            if summary is None:
                continue
            if "*" in spec:
                roots.extend(f"{mp}::{q}" for q in summary["functions"])
            else:
                roots.extend(
                    f"{mp}::{q}" for q in spec if q in summary["functions"]
                )
        return roots

    def unresolved_roots(self) -> list[str]:
        """Hot-zone entries that name no function.

        The pass skips such an entry, so a renamed or deleted root would
        silently stop being checked; ``repro lint`` reports each one as a
        configuration error instead.
        """
        out: list[str] = []
        for mp, spec in sorted(self.config.hotzones.items()):
            summary = self.graph.summaries.get(mp)
            if summary is None:
                out.append(f"hotzones: {mp}")
                continue
            out.extend(
                f"hotzones: {mp}::{q}"
                for q in spec
                if q != "*" and q not in summary["functions"]
            )
        return out

    def findings_for(
        self,
        mp: str,
        display_path: str,
        suppressions: SourceComments,
    ) -> list[Finding]:
        """One file's graph findings (before the --rules filter)."""
        summary = self.graph.summaries.get(mp)
        if summary is None:
            return []
        findings = [
            Finding(
                rule="ENG002", path=display_path, line=line, col=0,
                message="cold-call annotation missing mandatory '-- reason'",
            )
            for line in summary["malformed_cold"]
        ]

        for qualname in sorted(summary["functions"]):
            fn = summary["functions"][qualname]
            node_id = f"{mp}::{qualname}"
            hops = self.hot_chains.get(node_id)
            if hops is None or fn["raises_only"]:
                continue
            if hops:
                names = [hop[0].partition("::")[2] for hop in hops]
                where = (
                    f"'{qualname}', reachable from hot zone via "
                    + " → ".join(names + [qualname])
                )
            else:
                where = f"hot zone '{qualname}'"
            chain = tuple((hop[0], hop[1]) for hop in hops) + (
                (node_id, fn["line"]),
            )
            for effect in fn["effects"]:
                findings.append(Finding(
                    rule=effect["rule"], path=display_path,
                    line=effect["line"], col=effect["col"],
                    message=f"{effect['detail']} in {where}",
                    chain=chain,
                ))
            for name, attr, line, col in fn["class_loads"]:
                if self.graph.enum_class(mp, name) is None:
                    continue
                findings.append(Finding(
                    rule="HOT007", path=display_path, line=line, col=col,
                    message=(
                        f"enum member {name}.{attr} loaded through its "
                        f"class in {where}; the enum metaclass makes that a "
                        f"slow attribute load — hoist it to a module "
                        f"constant or a precomputed table"
                    ),
                    chain=chain,
                ))

        kept = [
            f for f in findings
            if not suppressions.is_suppressed(f.rule, f.line)
        ]
        kept.sort(key=Finding.sort_key)
        return kept
