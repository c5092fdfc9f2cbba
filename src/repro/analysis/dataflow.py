"""Graph-powered analyses: hot-zone reachability, determinism taint, and
the cross-process shared-state checker.

Runs on the :class:`~repro.analysis.graph.CallGraph` the engine builds
from the cached module summaries.  Three passes:

**Hot-zone reachability** — the hot zones declared in
``analysis/layers.toml`` are roots; every function reachable over edges
at or above :data:`~repro.analysis.graph.OBLIGATION_CONFIDENCE` (and not
annotated ``# repro: cold-call -- reason``) inherits the HOT obligations.
Functions *declared* hot are skipped here — the per-file rules already
police them — so each allocation site is reported exactly once, by
whichever pass owns it.  Diagnostics carry the call chain
(``Processor.step → DemandSteering.cycle → RequirementsEncoder.encode``)
both in the message and in the finding's ``chain`` field, which
``repro lint --explain`` renders with file:line hops.

**Determinism taint** — calls resolving to
:data:`~repro.analysis.graph.TAINT_SOURCES` taint the local they are
assigned to; taint propagates through return values across call edges
(a global fixpoint over the graph) and through ``self.attr`` state within
a class.  DET006 fires when a *laundered* tainted value (at least one
call hop from its source) is stored into simulation state in a
determinism-scope file; DET007 fires anywhere a tainted value reaches a
canonical-JSON sink.  Direct source calls stay the business of the
per-file DET001/DET004 rules, so the two layers never double-report.

**Cross-process shared state** — each role in ``[process_roles]`` names
its entry points; functions are attributed to roles by reachability at
:data:`~repro.analysis.graph.ROLE_CONFIDENCE`, and each role is one
process domain.  For every module-level mutable binding in the
concurrency scope: CON006 fires when a domain only *reads* state that a
different domain mutates (it observes a stale pre-fork copy); CON007
fires when a mutation happens in a function no declared role reaches
(ownership cannot be proven — declare its entry point).  Bindings
constructed as explicit queues are exempt: the channel is the sanctioned
mechanism.
"""

from __future__ import annotations

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.graph import (
    OBLIGATION_CONFIDENCE,
    ROLE_CONFIDENCE,
    TAINT_SINKS,
    TAINT_SOURCES,
    CallGraph,
)
from repro.analysis.suppressions import SourceComments

__all__ = ["GraphAnalysis", "GRAPH_RULE_IDS"]

#: rule ids the graph pass can produce (drives the --rules filter).
GRAPH_RULE_IDS = frozenset(
    {
        "HOT001", "HOT002", "HOT003", "HOT004", "HOT006", "HOT007",
        "DET006", "DET007", "CON006", "CON007", "ENG002",
    }
)

#: fixpoint safety bound; real trees converge in a handful of rounds.
_MAX_ROUNDS = 64


class GraphAnalysis:
    """All whole-program results, derived per file by :meth:`findings_for`."""

    def __init__(self, graph: CallGraph, config: AnalysisConfig) -> None:
        self.graph = graph
        self.config = config
        #: node id -> chain [[caller node, call line], ...] from a hot root.
        self.hot_chains = self._hot_reachability()
        #: per-module HOT007 records: enum members loaded through their
        #: class in a declared or hot-reachable function.
        self._enum_records = self._collect_enum_loads()
        #: node id -> taint witness {"source": ..., "chain": [...]} or None.
        self.taint: dict[str, dict | None] = {}
        #: (class id, attr) -> witness.
        self.state_taint: dict[tuple[str, str], dict] = {}
        #: per-module DET/sink findings raw records.
        self._det_records: dict[str, list[dict]] = {}
        self._sink_ids = self._sink_node_ids()
        self._run_taint()
        #: node id -> sorted role names reaching it.
        self.roles: dict[str, list[str]] = {}
        self._con_records: dict[str, list[dict]] = {}
        self._run_roles()

    # ------------------------------------------------------ hot reachability
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
        """Hot-zone and process-role entries that name no function.

        The passes skip such an entry, so a renamed or deleted root
        would silently stop being checked; ``repro lint`` reports each
        one as a configuration error instead.
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
        for role, roots in sorted(self.config.process_roles.items()):
            out.extend(
                f"process_roles.{role}: {root}"
                for root in roots
                if root not in self.graph.functions
            )
        return out

    def _hot_reachability(self) -> dict[str, list]:
        return self.graph.reachable_from(
            self._hot_roots(), OBLIGATION_CONFIDENCE, skip_cold=True
        )

    def _collect_enum_loads(self) -> dict[str, list[dict]]:
        records: dict[str, list[dict]] = {}
        for node_id in sorted(self.hot_chains):
            fn = self.graph.functions[node_id]
            if fn["raises_only"]:
                continue
            mp, _, qualname = node_id.partition("::")
            for name, attr, line, col in fn["class_loads"]:
                if self.graph.enum_class(mp, name) is None:
                    continue
                records.setdefault(mp, []).append({
                    "qualname": qualname, "member": f"{name}.{attr}",
                    "line": line, "col": col,
                    "chain": self.hot_chains[node_id],
                })
        return records

    def _declared_hot(self, mp: str, qualname: str) -> bool:
        spec = self.config.hot_functions(mp)
        return "*" in spec or qualname in spec

    # ---------------------------------------------------------------- taint
    def _sink_node_ids(self) -> set[str]:
        out: set[str] = set()
        for dotted in TAINT_SINKS:
            module, _, name = dotted.rpartition(".")
            mp = self.graph.modules.get(module)
            if mp is not None:
                out.add(f"{mp}::{name}")
        return out

    def _call_lookup(self, fn: dict) -> dict[tuple, dict]:
        return {(tuple(site["chain"]), site["line"]): site for site in fn["calls"]}

    def _eval_ref(
        self, ref: list, tainted_locals: dict, node_id: str, fn: dict,
        calls: dict[tuple, dict],
    ) -> dict | None:
        kind = ref[0]
        if kind == "local":
            return tainted_locals.get(ref[1])
        if kind == "state":
            cls = fn.get("cls")
            if cls is None:
                return None
            mp = node_id.partition("::")[0]
            witness = self.state_taint.get((f"{mp}::{cls}", ref[1]))
            return witness
        if kind == "chainload":
            external = self.graph.external_name(
                node_id.partition("::")[0], ref[1]
            )
            if external is not None and external in TAINT_SOURCES:
                return {"source": TAINT_SOURCES[external], "chain": []}
            return None
        if kind == "callchain":
            chain, line = tuple(ref[1]), ref[2]
            site = calls.get((chain, line))
            resolved = (
                site["resolved"] if site is not None else [
                    [t, k, c] for t, k, c in self.graph.resolve_call(
                        node_id.partition("::")[0],
                        node_id.partition("::")[2],
                        fn, list(chain),
                    )
                ]
            )
            for target, _, confidence in resolved:
                if target.startswith("<ext:"):
                    external = target[5:-1]
                    if external in TAINT_SOURCES:
                        return {
                            "source": TAINT_SOURCES[external], "chain": [],
                        }
                elif confidence >= OBLIGATION_CONFIDENCE:
                    witness = self.taint.get(target)
                    if witness is not None:
                        return {
                            "source": witness["source"],
                            "chain": witness["chain"] + [[target, line]],
                        }
            return None
        return None

    def _run_taint(self) -> None:
        functions = self.graph.functions
        for node_id in functions:
            self.taint[node_id] = None
        for _ in range(_MAX_ROUNDS):
            changed = False
            for node_id in sorted(functions):
                fn = functions[node_id]
                calls = self._call_lookup(fn)
                tainted_locals: dict[str, dict] = {}
                for _ in range(4):  # local chains converge fast
                    local_changed = False
                    for record in fn["assigns"]:
                        witness = None
                        for use in record["uses"]:
                            witness = self._eval_ref(
                                use, tainted_locals, node_id, fn, calls
                            )
                            if witness is not None:
                                break
                        if witness is None:
                            continue
                        target_kind, target_name = record["t"]
                        if target_kind == "local":
                            if target_name not in tainted_locals:
                                tainted_locals[target_name] = witness
                                local_changed = True
                        elif target_kind == "state":
                            cls = fn.get("cls")
                            if cls is None:
                                continue
                            mp = node_id.partition("::")[0]
                            key = (f"{mp}::{cls}", target_name)
                            if key not in self.state_taint:
                                self.state_taint[key] = witness
                                changed = True
                    if not local_changed:
                        break
                if self.taint[node_id] is None:
                    for record in fn["returns"]:
                        for use in record["uses"]:
                            witness = self._eval_ref(
                                use, tainted_locals, node_id, fn, calls
                            )
                            if witness is not None:
                                self.taint[node_id] = witness
                                changed = True
                                break
                        if self.taint[node_id] is not None:
                            break
            if not changed:
                break
        self._collect_det_records()

    def _collect_det_records(self) -> None:
        for node_id in sorted(self.graph.functions):
            fn = self.graph.functions[node_id]
            mp, _, qualname = node_id.partition("::")
            calls = self._call_lookup(fn)
            tainted_locals: dict[str, dict] = {}
            for _ in range(4):
                local_changed = False
                for record in fn["assigns"]:
                    if record["t"][0] != "local":
                        continue
                    for use in record["uses"]:
                        witness = self._eval_ref(
                            use, tainted_locals, node_id, fn, calls
                        )
                        if witness is not None and record["t"][1] not in tainted_locals:
                            tainted_locals[record["t"][1]] = witness
                            local_changed = True
                            break
                if not local_changed:
                    break
            records = self._det_records.setdefault(mp, [])
            if self.config.in_scope(mp, self.config.determinism_scope):
                for record in fn["assigns"]:
                    if record["t"][0] != "state":
                        continue
                    for use in record["uses"]:
                        witness = self._eval_ref(
                            use, tainted_locals, node_id, fn, calls
                        )
                        # at least one call hop: direct source calls are
                        # DET001/DET004 territory (per-file)
                        if witness is not None and witness["chain"]:
                            records.append({
                                "rule": "DET006", "line": record["line"],
                                "qualname": qualname,
                                "attr": record["t"][1],
                                "source": witness["source"],
                                "chain": witness["chain"],
                            })
                            break
            for site in fn["calls"]:
                if not any(
                    target in self._sink_ids
                    for target, _, _ in site.get("resolved", [])
                ):
                    continue
                for use in site["uses"]:
                    witness = self._eval_ref(
                        use, tainted_locals, node_id, fn, calls
                    )
                    if witness is not None:
                        records.append({
                            "rule": "DET007", "line": site["line"],
                            "qualname": qualname,
                            "source": witness["source"],
                            "chain": witness["chain"],
                        })
                        break

    # ---------------------------------------------------------------- roles
    def _run_roles(self) -> None:
        role_table = getattr(self.config, "process_roles", {})
        if not role_table:
            return
        reach: dict[str, dict[str, list]] = {}
        for role in sorted(role_table):
            roots = [r for r in role_table[role]]
            reach[role] = self.graph.reachable_from(
                roots, ROLE_CONFIDENCE, skip_cold=False
            )
        for node_id in sorted(self.graph.functions):
            owning = sorted(
                role for role in reach if node_id in reach[role]
            )
            if owning:
                self.roles[node_id] = owning

        for mp in sorted(self.graph.summaries):
            if not self.config.in_scope(mp, self.config.concurrency_scope):
                continue
            summary = self.graph.summaries[mp]
            for name in sorted(summary["module_mutables"]):
                binding = summary["module_mutables"][name]
                if binding.get("channel"):
                    continue
                writers: list[tuple[str, int]] = []
                readers: list[tuple[str, int]] = []
                for qualname in sorted(summary["functions"]):
                    fn = summary["functions"][qualname]
                    node_id = f"{mp}::{qualname}"
                    write_lines = {
                        line for n, line in fn["global_writes"] if n == name
                    }
                    for n, line in fn["global_writes"]:
                        if n == name:
                            writers.append((node_id, line))
                    for n, line in fn["global_reads"]:
                        if n == name and line not in write_lines:
                            readers.append((node_id, line))
                if not writers:
                    continue
                records = self._con_records.setdefault(mp, [])
                writer_domains: set[str] = set()
                for node_id, line in writers:
                    roles = self.roles.get(node_id)
                    if roles is None:
                        records.append({
                            "rule": "CON007", "line": line, "name": name,
                            "qualname": node_id.partition("::")[2],
                        })
                    else:
                        writer_domains.update(roles)
                if not writer_domains:
                    continue
                seen_readers: set[tuple[str, str]] = set()
                for node_id, line in readers:
                    roles = self.roles.get(node_id)
                    if roles is None:
                        continue
                    for domain in roles:
                        if domain in writer_domains:
                            continue
                        key = (node_id, domain)
                        if key in seen_readers:
                            continue
                        seen_readers.add(key)
                        records.append({
                            "rule": "CON006", "line": line, "name": name,
                            "qualname": node_id.partition("::")[2],
                            "domain": domain,
                            "writers": sorted(writer_domains),
                        })

    # -------------------------------------------------------------- findings
    def _chain_names(self, chain: list, tail: str) -> str:
        names = [hop[0].partition("::")[2] for hop in chain]
        names.append(tail)
        return " → ".join(names)

    def findings_for(
        self,
        mp: str,
        display_path: str,
        suppressions: SourceComments,
    ) -> list[Finding]:
        """Derive one file's interprocedural findings (pre --rules filter)."""
        summary = self.graph.summaries.get(mp)
        if summary is None:
            return []
        findings: list[Finding] = []

        for line in summary["malformed_cold"]:
            findings.append(Finding(
                rule="ENG002", path=display_path, line=line, col=0,
                message="cold-call annotation missing mandatory '-- reason'",
            ))

        for qualname in sorted(summary["functions"]):
            fn = summary["functions"][qualname]
            node_id = f"{mp}::{qualname}"
            chain = self.hot_chains.get(node_id)
            if chain is None or not chain:
                continue  # unreached, or itself a root (declared hot)
            if self._declared_hot(mp, qualname):
                continue  # per-file rules own declared hot zones
            if fn["raises_only"]:
                continue  # error helpers: cold by construction
            path_names = self._chain_names(chain, qualname)
            for effect in fn["effects"]:
                findings.append(Finding(
                    rule=effect["rule"], path=display_path,
                    line=effect["line"], col=effect["col"],
                    message=(
                        f"{effect['detail']} in '{qualname}', reachable "
                        f"from hot zone via {path_names}"
                    ),
                    chain=tuple(
                        (hop[0], hop[1]) for hop in chain
                    ) + ((node_id, fn["line"]),),
                ))

        for record in self._enum_records.get(mp, []):
            qualname = record["qualname"]
            where = f"hot zone '{qualname}'"
            if record["chain"]:
                where = (
                    f"'{qualname}', reachable from hot zone via "
                    f"{self._chain_names(record['chain'], qualname)}"
                )
            findings.append(Finding(
                rule="HOT007", path=display_path,
                line=record["line"], col=record["col"],
                message=(
                    f"enum member {record['member']} loaded through its "
                    f"class in {where}; the enum metaclass makes that a "
                    f"slow attribute load — hoist it to a module constant "
                    f"or a precomputed table"
                ),
                chain=tuple(
                    (hop[0], hop[1]) for hop in record["chain"]
                ) + ((f"{mp}::{qualname}", record["line"]),),
            ))

        for record in self._det_records.get(mp, []):
            if record["rule"] == "DET006":
                message = (
                    f"nondeterministic value ({record['source']}) stored "
                    f"into simulation state 'self.{record['attr']}' in "
                    f"'{record['qualname']}' via "
                    f"{self._chain_names(record['chain'], record['qualname'])}"
                )
            else:
                message = (
                    f"nondeterministic value ({record['source']}) reaches "
                    f"a canonical-JSON sink in '{record['qualname']}'"
                )
            findings.append(Finding(
                rule=record["rule"], path=display_path,
                line=record["line"], col=0, message=message,
                chain=tuple((hop[0], hop[1]) for hop in record["chain"]),
            ))

        for record in self._con_records.get(mp, []):
            if record["rule"] == "CON006":
                message = (
                    f"module state '{record['name']}' is read in process "
                    f"domain '{record['domain']}' but mutated in "
                    f"{record['writers']} — cross-process state must go "
                    f"through RunStore scopes or an explicit queue"
                )
            else:
                message = (
                    f"mutation of module state '{record['name']}' in "
                    f"'{record['qualname']}' has no process-role "
                    f"attribution; declare its entry point in "
                    f"[process_roles]"
                )
            findings.append(Finding(
                rule=record["rule"], path=display_path,
                line=record["line"], col=0, message=message,
            ))

        kept = [
            f for f in findings
            if not suppressions.is_suppressed(f.rule, f.line)
        ]
        kept.sort(key=Finding.sort_key)
        return kept
