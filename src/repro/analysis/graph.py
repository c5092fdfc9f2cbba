"""Whole-program call graph for the analysis engine.

Two stages, both stdlib-only:

1. :func:`summarize_module` walks one file's AST and produces a plain-dict
   *module summary*: imports, classes (bases, methods, inferred attribute
   types), functions with their call sites, allocation/format *effect
   sites* (pre-filtered through the file's inline suppressions), taint-
   relevant assignments/returns/sinks, and module-level mutable bindings.
   It reads the tree and the ``# repro:`` comments the engine already
   derived for the per-file rules; it parses and tokenizes nothing.

2. :func:`build_graph` links the summaries into a :class:`CallGraph`:
   nodes are ``"module/path.py::Qual.name"``, edges carry a *kind* and a
   *confidence* in [0, 1].  Name calls, self-method calls and constructor
   calls resolve statically (confidence 1.0); calls through typed
   attributes (``self.loader.step()``) resolve through the inferred
   attribute types (0.9) with polymorphic override edges to subclasses
   (0.8); dict-dispatch (``TABLE[key]()``) fans out to every table entry
   (0.5); bare function references passed as arguments are recorded as
   first-class-reference edges (0.3); anything else is kept as an
   unresolved dynamic edge (0.2).  The hot-zone and taint passes only
   propagate across edges at or above :data:`OBLIGATION_CONFIDENCE`; the
   process-role pass uses the looser :data:`ROLE_CONFIDENCE`.

A call site whose line carries ``# repro: cold-call -- reason`` yields a
cold edge: recorded in the graph (and the ``--graph-out`` artifact) but
skipped by hot-zone reachability.

Everything here iterates in sorted order and serialises through
:func:`canonical_graph_json`, so two builds over the same tree are
byte-identical — CI asserts exactly that.
"""

from __future__ import annotations

import ast
import json

from repro.analysis.suppressions import SourceComments

__all__ = [
    "CallGraph",
    "summarize_module",
    "build_graph",
    "canonical_graph_json",
    "OBLIGATION_CONFIDENCE",
    "ROLE_CONFIDENCE",
    "GRAPH_VERSION",
]

#: schema version of the ``--graph-out`` artifact.
GRAPH_VERSION = 4

#: minimum edge confidence for hot-obligation and taint propagation.
OBLIGATION_CONFIDENCE = 0.75

#: minimum edge confidence for process-role attribution (CON006/CON007).
ROLE_CONFIDENCE = 0.5

#: calls the taint pass treats as nondeterminism sources, by resolved
#: dotted name.  Dict-view iteration order is deliberately absent: the
#: per-file DET003 rule already polices hashing over unsorted views, and
#: plain dict iteration is insertion-ordered (deterministic) in Python.
TAINT_SOURCES = {
    "time.time": "wall clock (time.time)",
    "time.time_ns": "wall clock (time.time_ns)",
    "time.perf_counter": "performance counter",
    "time.perf_counter_ns": "performance counter",
    "time.monotonic": "monotonic clock",
    "time.monotonic_ns": "monotonic clock",
    "time.process_time": "process clock",
    "time.thread_time": "thread clock",
    "datetime.datetime.now": "wall clock (datetime.now)",
    "datetime.datetime.utcnow": "wall clock (datetime.utcnow)",
    "datetime.datetime.today": "wall clock (datetime.today)",
    "datetime.date.today": "wall clock (date.today)",
    "random.random": "unseeded global RNG",
    "random.randint": "unseeded global RNG",
    "random.randrange": "unseeded global RNG",
    "random.choice": "unseeded global RNG",
    "random.choices": "unseeded global RNG",
    "random.shuffle": "unseeded global RNG",
    "random.sample": "unseeded global RNG",
    "random.uniform": "unseeded global RNG",
    "random.gauss": "unseeded global RNG",
    "random.getrandbits": "unseeded global RNG",
    "os.getenv": "environment read (os.getenv)",
    "os.environ.get": "environment read (os.environ)",
    "os.environ": "environment read (os.environ)",
    "id": "object identity (id)",
    "hash": "salted hash (PYTHONHASHSEED)",
    "uuid.uuid1": "uuid1 (host/time derived)",
    "uuid.uuid4": "random uuid",
}

#: canonical-JSON sink functions (DET007), by resolved dotted name.
TAINT_SINKS = {
    "repro.utils.canonical.canonical_dumps",
    "repro.utils.canonical.canonical_dump",
}

#: module-level constructor calls treated as explicit cross-process /
#: cross-thread channels — bindings holding them are exempt from the
#: shared-state rules (the channel *is* the sanctioned mechanism).
_CHANNEL_CTORS = {"Queue", "SimpleQueue", "JoinableQueue", "LifoQueue", "deque"}

_MUTABLE_CTORS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}

#: the stdlib ``enum`` bases (and functional-API constructors) whose
#: classes HOT007 tracks: a member loaded through such a class goes through
#: the metaclass's slow attribute path.
_ENUM_BASES = {"Enum", "IntEnum", "Flag", "IntFlag", "StrEnum"}

#: receiver names (leading underscores stripped) whose method calls in
#: a hot zone must sit behind a guard that mentions them (HOT006).
_GUARDED_RECEIVERS = ("tel", "telemetry", "obs", "observer")

#: mutating method names on module-level containers (mirrors CON002).
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft",
}


def _chain_of(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; subscripts become "[]"; else None."""
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            parts.append("[]")
            node = node.value
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "super":
                parts.append("super()")
                return parts[::-1]
            return None
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return parts[::-1]
        else:
            return None


def _type_chain(annotation: ast.AST) -> list[str] | None:
    """Best-effort class-name chain from an annotation/constructor node.

    ``Fabric`` -> ["Fabric"]; ``m.Fabric | None`` -> ["m", "Fabric"]
    (the first non-None alternative); strings and subscripted generics
    are ignored.
    """
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left = _type_chain(annotation.left)
        return left if left is not None else _type_chain(annotation.right)
    if isinstance(annotation, ast.Constant):
        return None
    if isinstance(annotation, ast.Subscript):
        return None
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        chain = _chain_of(annotation)
        if chain and chain[-1] != "None":
            return chain
    return None


class _FunctionVisitor(ast.NodeVisitor):
    """Collects one function's call sites, effects and taint ops."""

    def __init__(
        self,
        summary: dict,
        cls: str | None,
        comments: SourceComments,
    ) -> None:
        self.fn: dict = {
            "line": 0,
            "cls": cls,
            "calls": [],
            "effects": [],
            "raises_only": False,
            "local_types": {},
            "assigns": [],
            "returns": [],
            "refs": [],
            "global_writes": [],
            "global_reads": [],
            # ``Name.attr`` loads through a capitalised module-level name:
            # the HOT007 candidates, resolved to enum classes at link time
            "class_loads": [],
        }
        self.summary = summary
        self.comments = comments
        self._raise_depth = 0
        self._loop_depth = 0
        self._guard_depth = 0
        self._local_names: set[str] = set()
        self._globals: set[str] = set()

    # ------------------------------------------------------------- helpers
    def _effect(self, rule: str, node: ast.AST, detail: str) -> None:
        if self._raise_depth:
            return
        line = getattr(node, "lineno", 0)
        if self.comments.is_suppressed(rule, line):
            return
        self.fn["effects"].append(
            {"rule": rule, "line": line, "col": getattr(node, "col_offset", 0),
             "detail": detail}
        )

    def _call_index(
        self, chain: list[str], node: ast.AST, uses: list | None = None
    ) -> int:
        line = getattr(node, "lineno", 0)
        self.fn["calls"].append(
            {"chain": chain, "line": line,
             "col": getattr(node, "col_offset", 0),
             "cold": self.comments.cold_calls.get(line), "uses": uses or []}
        )
        return len(self.fn["calls"]) - 1

    def _refs_of(self, node: ast.AST) -> list:
        """Taint-relevant references inside an expression."""
        refs: list = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                chain = _chain_of(sub.func)
                if chain is not None:
                    refs.append(["callchain", chain, sub.lineno])
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                refs.append(["local", sub.id])
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                chain = _chain_of(sub)
                if chain is None:
                    continue
                if chain[0] == "self" and len(chain) == 2:
                    refs.append(["state", chain[1]])
                else:
                    refs.append(["chainload", chain])
        return refs

    # -------------------------------------------------------------- visits
    def visit_Raise(self, node: ast.Raise) -> None:
        self._raise_depth += 1
        self.generic_visit(node)
        self._raise_depth -= 1

    def _visit_comprehension(self, node: ast.AST, what: str) -> None:
        self._effect("HOT001", node, what)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, "list comprehension")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node, "set comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, "generator expression")

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        self._effect("HOT003", node, "f-string")
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._effect("HOT004", node, "lambda")
        # don't descend: the lambda body runs in its own scope

    def visit_For(self, node: ast.For) -> None:
        self._loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._loop(node)

    def _loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        chain = _chain_of(node.func)
        if chain is not None:
            if len(chain) == 1 and chain[0] in ("dict", "list", "set"):
                self._effect("HOT002", node, f"{chain[0]}() construction")
            arg_uses: list = []
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                arg_uses.extend(self._refs_of(arg))
            self._call_index(chain, node, arg_uses)
            if (
                len(chain) == 2
                and chain[0] in self.summary["module_mutables"]
                and chain[0] not in self._local_names
                and chain[1] in _MUTATOR_METHODS
            ):
                self.fn["global_writes"].append([chain[0], node.lineno])
            if (
                len(chain) >= 1
                and chain[0].lstrip("_") in _GUARDED_RECEIVERS
                and not self._guard_depth
            ):
                self._effect("HOT006", node, "unguarded telemetry call")
        # bare function references in argument position: conservative
        # first-class-function edges
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                ref_chain = _chain_of(arg)
                if ref_chain is not None and ref_chain[-1] != "[]":
                    self.fn["refs"].append(
                        {"chain": ref_chain, "line": arg.lineno}
                    )
        self.generic_visit(node)

    @staticmethod
    def _mentions_telemetry(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None and name.lstrip("_") in _GUARDED_RECEIVERS:
                return True
        return False

    def visit_If(self, node: ast.If) -> None:
        guarded = self._mentions_telemetry(node.test)
        if guarded:
            self._guard_depth += 1
        self.generic_visit(node)
        if guarded:
            self._guard_depth -= 1

    def visit_IfExp(self, node: ast.IfExp) -> None:
        guarded = self._mentions_telemetry(node.test)
        if guarded:
            self._guard_depth += 1
        self.generic_visit(node)
        if guarded:
            self._guard_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assign(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.target is not None and isinstance(node.target, ast.Name):
            chain = _type_chain(node.annotation)
            if chain is not None:
                self.fn["local_types"].setdefault(node.target.id, chain)
        if node.value is not None:
            self._record_assign([node.target], node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_assign([node.target], node.value, node)
        self.generic_visit(node)

    def _record_assign(self, targets: list, value: ast.AST, node: ast.AST) -> None:
        uses = self._refs_of(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if isinstance(value, ast.Call):
                    chain = _chain_of(value.func)
                    if chain is not None:
                        self.fn["local_types"].setdefault(target.id, chain)
                self.fn["assigns"].append(
                    {"t": ["local", target.id], "uses": uses, "line": node.lineno}
                )
                if (
                    target.id in self.summary["module_mutables"]
                    and target.id in self._globals
                ):
                    self.fn["global_writes"].append([target.id, node.lineno])
                else:
                    self._local_names.add(target.id)
            elif isinstance(target, ast.Attribute):
                chain = _chain_of(target)
                if chain is not None and chain[0] == "self" and len(chain) == 2:
                    self.fn["assigns"].append(
                        {"t": ["state", chain[1]], "uses": uses,
                         "line": node.lineno}
                    )
            elif isinstance(target, ast.Subscript):
                chain = _chain_of(target.value)
                if (
                    chain is not None
                    and len(chain) == 1
                    and chain[0] in self.summary["module_mutables"]
                    and chain[0] not in self._local_names
                ):
                    self.fn["global_writes"].append([chain[0], node.lineno])
            elif isinstance(target, (ast.Tuple, ast.List)):
                self._record_assign(list(target.elts), value, node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self.fn["returns"].append(
                {"uses": self._refs_of(node.value), "line": node.lineno}
            )
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._globals.update(node.names)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if (
            isinstance(node.ctx, ast.Load)
            and isinstance(value, ast.Name)
            and value.id[:1].isupper()
            and value.id not in self._local_names
            and not self._raise_depth
            and not self.comments.is_suppressed("HOT007", node.lineno)
        ):
            self.fn["class_loads"].append(
                [value.id, node.attr, node.lineno, node.col_offset]
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and node.id in self.summary["module_mutables"]
            and node.id not in self._local_names
        ):
            self.fn["global_reads"].append([node.id, node.lineno])

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are summarised as their own functions

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass


def _is_raises_only(node: ast.AST) -> bool:
    body = [
        stmt for stmt in node.body
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]
    return bool(body) and all(isinstance(stmt, ast.Raise) for stmt in body)


def summarize_module(
    module_path: str,
    source: str,
    tree: ast.AST,
    comments: SourceComments | None = None,
) -> dict:
    """One file -> its plain-dict module summary (see module docstring).

    ``comments`` is the file's comment scan; the engine passes the one
    its per-file phase made, and it is derived here only when absent.
    """
    dotted = module_path[:-3].replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    if comments is None:
        comments = SourceComments(source, tree)
    summary: dict = {
        "module_path": module_path,
        "dotted": dotted,
        "imports": {},
        "classes": {},
        "functions": {},
        "module_mutables": {},
        "dispatch_tables": {},
        # module-level functional-API enums: name -> constructor chain
        # (``Opcode = enum.Enum(...)`` -> ["enum", "Enum"])
        "enums": {},
        "malformed_cold": sorted(comments.malformed_cold),
    }

    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                summary["imports"][name] = ["module", target]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level == 0:
            for alias in stmt.names:
                summary["imports"][alias.asname or alias.name] = [
                    "from", stmt.module, alias.name,
                ]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            if value is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                ctor: str | None = None
                if isinstance(value, (ast.Dict, ast.List, ast.Set)):
                    ctor = type(value).__name__.lower()
                elif isinstance(value, ast.Call):
                    chain = _chain_of(value.func)
                    if chain is not None and chain[-1] in (
                        _MUTABLE_CTORS | _CHANNEL_CTORS
                    ):
                        ctor = chain[-1]
                    elif chain is not None and chain[-1] in _ENUM_BASES:
                        summary["enums"][target.id] = chain
                if ctor is not None:
                    summary["module_mutables"][target.id] = {
                        "line": stmt.lineno,
                        "ctor": ctor,
                        "channel": ctor in _CHANNEL_CTORS,
                    }
                if isinstance(value, ast.Dict):
                    entries = []
                    for v in value.values:
                        chain = _chain_of(v)
                        if chain is not None:
                            entries.append(chain)
                    if entries:
                        summary["dispatch_tables"][target.id] = entries

    # function-level (lazy) imports — common here to break layering
    # cycles — resolve like module-level ones; module scope wins on a
    # name collision, which is the conservative direction
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                summary["imports"].setdefault(name, ["module", target])
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                summary["imports"].setdefault(
                    alias.asname or alias.name, ["from", node.module, alias.name]
                )

    def walk_scope(
        body: list, prefix: str, cls: str | None, class_info: dict | None
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                visitor = _FunctionVisitor(summary, cls, comments)
                visitor.fn["line"] = stmt.lineno
                visitor.fn["raises_only"] = _is_raises_only(stmt)
                for arg in (
                    stmt.args.posonlyargs + stmt.args.args + stmt.args.kwonlyargs
                ):
                    if arg.annotation is not None:
                        chain = _type_chain(arg.annotation)
                        if chain is not None:
                            visitor.fn["local_types"][arg.arg] = chain
                for sub in stmt.body:
                    visitor.visit(sub)
                summary["functions"][qualname] = visitor.fn
                if class_info is not None:
                    class_info["methods"][stmt.name] = qualname
                    for record in visitor.fn["assigns"]:
                        if record["t"][0] != "state":
                            continue
                        # infer attribute types from constructor/annotated
                        # assignments anywhere in the class
                        for use in record["uses"]:
                            if use[0] == "callchain":
                                class_info["attr_candidates"].setdefault(
                                    record["t"][1], []
                                ).append(use[1])
                            elif use[0] == "local":
                                chain = visitor.fn["local_types"].get(use[1])
                                if chain is not None:
                                    class_info["attr_candidates"].setdefault(
                                        record["t"][1], []
                                    ).append(chain)
                # nested defs: summarised with a qualified name, calls
                # from the parent resolve via the "name" fallback
                walk_scope(stmt.body, f"{qualname}.", cls, None)
            elif isinstance(stmt, ast.ClassDef):
                info = {
                    "bases": [
                        c for c in (_chain_of(b) for b in stmt.bases)
                        if c is not None
                    ],
                    "methods": {},
                    "attr_candidates": {},
                    "line": stmt.lineno,
                }
                summary["classes"][stmt.name] = info
                for sub in stmt.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(
                        sub.target, ast.Name
                    ):
                        chain = _type_chain(sub.annotation)
                        if chain is not None:
                            info["attr_candidates"].setdefault(
                                sub.target.id, []
                            ).append(chain)
                walk_scope(stmt.body, f"{stmt.name}.", stmt.name, info)

    walk_scope(tree.body, "", None, None)
    return summary


# --------------------------------------------------------------------- graph
class CallGraph:
    """The linked whole-program graph plus its resolution indexes."""

    def __init__(self, summaries: dict[str, dict]) -> None:
        #: module_path -> summary, in sorted order.
        self.summaries = {k: summaries[k] for k in sorted(summaries)}
        #: dotted module name -> module_path.
        self.modules = {s["dotted"]: mp for mp, s in self.summaries.items()}
        #: node id -> function record.
        self.functions: dict[str, dict] = {}
        #: class id ("module_path::ClassName") -> class record.
        self.classes: dict[str, dict] = {}
        #: method name -> sorted class ids defining it (fallback lookup).
        self._method_index: dict[str, list[str]] = {}
        #: class id -> sorted subclass ids (direct).
        self.subclasses: dict[str, list[str]] = {}
        #: edges: (caller, callee, kind, confidence, line, cold-reason).
        self.edges: list[tuple[str, str, str, float, int, str | None]] = []
        #: unresolved dynamic call sites: (caller, chain, line, confidence).
        self.dynamic: list[tuple[str, str, int, float]] = []
        self._out: dict[str, list[int]] = {}
        self._build_indexes()
        self._link()

    # ------------------------------------------------------------- indexes
    def _build_indexes(self) -> None:
        for mp, summary in self.summaries.items():
            for qualname, fn in summary["functions"].items():
                self.functions[f"{mp}::{qualname}"] = fn
            for cls, info in summary["classes"].items():
                self.classes[f"{mp}::{cls}"] = info
                for method in info["methods"]:
                    self._method_index.setdefault(method, []).append(f"{mp}::{cls}")
        for methods in self._method_index.values():
            methods.sort()
        # resolve base-class chains to class ids, then invert
        for cid in sorted(self.classes):
            mp, _, cls = cid.partition("::")
            info = self.classes[cid]
            resolved: list[str] = []
            for chain in info["bases"]:
                base = self._resolve_class_chain(mp, chain)
                if base is not None:
                    resolved.append(base)
                    self.subclasses.setdefault(base, []).append(cid)
            info["base_ids"] = resolved
        for subs in self.subclasses.values():
            subs.sort()

    def _resolve_import(self, mp: str, name: str, depth: int = 0):
        """An imported alias -> ("module", path) | ("func"/"class", node id)
        | ("external", dotted) | None."""
        if depth > 6:
            return None
        summary = self.summaries[mp]
        imp = summary["imports"].get(name)
        if imp is None:
            return None
        if imp[0] == "module":
            target = imp[1]
            if target in self.modules:
                return ("module", self.modules[target])
            # package import: repro.steering -> repro/steering/__init__.py
            return ("external", target)
        target_module, member = imp[1], imp[2]
        target_mp = self.modules.get(target_module)
        if target_mp is None:
            submodule = self.modules.get(f"{target_module}.{member}")
            if submodule is not None:
                return ("module", submodule)
            return ("external", f"{target_module}.{member}")
        target_summary = self.summaries[target_mp]
        if member in target_summary["classes"]:
            return ("class", f"{target_mp}::{member}")
        if member in target_summary["functions"]:
            return ("func", f"{target_mp}::{member}")
        if member in target_summary["imports"]:
            return self._resolve_import(target_mp, member, depth + 1)
        submodule = self.modules.get(f"{target_module}.{member}")
        if submodule is not None:
            return ("module", submodule)
        return ("external", f"{target_module}.{member}")

    def _resolve_class_chain(self, mp: str, chain: list[str]) -> str | None:
        """A class-name chain in module ``mp`` -> class id, or None."""
        if not chain:
            return None
        head = chain[0]
        summary = self.summaries[mp]
        if len(chain) == 1:
            if head in summary["classes"]:
                return f"{mp}::{head}"
            resolved = self._resolve_import(mp, head)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
            return None
        resolved = self._resolve_import(mp, head)
        if resolved is not None and resolved[0] == "module" and len(chain) == 2:
            target_mp = resolved[1]
            if chain[1] in self.summaries[target_mp]["classes"]:
                return f"{target_mp}::{chain[1]}"
        return None

    def _is_enum_base(self, mp: str, chain: list[str]) -> bool:
        """Whether ``chain`` in module ``mp`` names a stdlib enum base
        (``Enum``, ``enum.IntEnum``, ...)."""
        if chain[-1] not in _ENUM_BASES or len(chain) > 2:
            return False
        if len(chain) == 1:
            return self._resolve_import(mp, chain[0]) == (
                "external", f"enum.{chain[0]}"
            )
        return self._resolve_import(mp, chain[0]) == ("external", "enum")

    def enum_class(self, mp: str, name: str, depth: int = 0) -> str | None:
        """The id of the enum class ``name`` denotes in module ``mp`` — a
        subclass of a stdlib enum base, or a functional-API enum — or
        None."""
        summary = self.summaries[mp]
        chain = summary["enums"].get(name)
        if chain is not None:
            return f"{mp}::{name}" if self._is_enum_base(mp, chain) else None
        cid = self._resolve_class_chain(mp, [name])
        if cid is not None:
            seen: set[str] = set()
            stack = [cid]
            while stack:
                current = stack.pop()
                if current in seen or current not in self.classes:
                    continue
                seen.add(current)
                info = self.classes[current]
                cmp = current.partition("::")[0]
                if any(self._is_enum_base(cmp, b) for b in info["bases"]):
                    return cid
                stack.extend(info.get("base_ids", []))
            return None
        # a functional-API enum imported (or re-exported) from elsewhere
        imp = summary["imports"].get(name)
        if imp is not None and imp[0] == "from" and depth < 6:
            target_mp = self.modules.get(imp[1])
            if target_mp is not None:
                return self.enum_class(target_mp, imp[2], depth + 1)
        return None

    def class_attr_type(self, cid: str, attr: str) -> list[str]:
        """Inferred class ids an attribute of ``cid`` may hold (with MRO)."""
        out: list[str] = []
        seen: set[str] = set()
        stack = [cid]
        while stack:
            current = stack.pop()
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            info = self.classes[current]
            mp = current.partition("::")[0]
            for chain in info["attr_candidates"].get(attr, []):
                resolved = self._resolve_class_chain(mp, chain)
                if resolved is not None and resolved not in out:
                    out.append(resolved)
            stack.extend(info.get("base_ids", []))
        return sorted(out)

    def lookup_method(self, cid: str, method: str) -> str | None:
        """Method resolution through the (linearised) base chain."""
        seen: set[str] = set()
        stack = [cid]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            info = self.classes[current]
            if method in info["methods"]:
                mp = current.partition("::")[0]
                return f"{mp}::{info['methods'][method]}"
            stack.extend(info.get("base_ids", []))
        return None

    def override_targets(self, cid: str, method: str) -> list[str]:
        """Every subclass override of ``cid.method`` (transitively)."""
        out: list[str] = []
        stack = list(self.subclasses.get(cid, []))
        seen: set[str] = set()
        while stack:
            sub = stack.pop()
            if sub in seen:
                continue
            seen.add(sub)
            info = self.classes.get(sub)
            if info is None:
                continue
            if method in info["methods"]:
                mp = sub.partition("::")[0]
                out.append(f"{mp}::{info['methods'][method]}")
            stack.extend(self.subclasses.get(sub, []))
        return sorted(out)

    # -------------------------------------------------------------- linking
    def _add_edge(
        self, src: str, dst: str, kind: str, confidence: float,
        line: int, cold: str | None,
    ) -> None:
        index = len(self.edges)
        self.edges.append((src, dst, kind, confidence, line, cold))
        self._out.setdefault(src, []).append(index)

    def _link(self) -> None:
        for node_id in sorted(self.functions):
            mp, _, qualname = node_id.partition("::")
            fn = self.functions[node_id]
            for index, site in enumerate(fn["calls"]):
                targets = self.resolve_call(mp, qualname, fn, site["chain"])
                site["resolved"] = [
                    [t, kind, conf] for t, kind, conf in targets
                ]
                if not targets:
                    self.dynamic.append(
                        (node_id, ".".join(site["chain"]), site["line"], 0.2)
                    )
                    continue
                for target, kind, confidence in targets:
                    if target.startswith("<"):
                        continue  # sources/sinks: no project edge
                    self._add_edge(
                        node_id, target, kind, confidence,
                        site["line"], site["cold"],
                    )
            for ref in fn["refs"]:
                resolved = self._resolve_function_chain(mp, ref["chain"])
                if resolved is not None:
                    self._add_edge(
                        node_id, resolved, "first-class-ref", 0.3,
                        ref["line"], None,
                    )

    def _resolve_function_chain(self, mp: str, chain: list[str]) -> str | None:
        summary = self.summaries[mp]
        head = chain[0]
        if len(chain) == 1:
            if head in summary["functions"]:
                return f"{mp}::{head}"
            resolved = self._resolve_import(mp, head)
            if resolved is not None and resolved[0] == "func":
                return resolved[1]
            return None
        resolved = self._resolve_import(mp, head)
        if resolved is not None and resolved[0] == "module" and len(chain) == 2:
            target_mp = resolved[1]
            if chain[1] in self.summaries[target_mp]["functions"]:
                return f"{target_mp}::{chain[1]}"
        return None

    def external_name(self, mp: str, chain: list[str]) -> str | None:
        """Resolved dotted name for a call into a non-project module."""
        head = chain[0]
        resolved = self._resolve_import(mp, head)
        if resolved is None:
            if len(chain) == 1:
                return head  # builtins: id(), hash(), print()
            return None
        if resolved[0] == "external":
            return ".".join([resolved[1]] + chain[1:])
        return None

    def resolve_call(
        self, mp: str, qualname: str, fn: dict, chain: list[str]
    ) -> list[tuple[str, str, float]]:
        """One call chain -> [(target node id | "<source:...>", kind, conf)].

        Target ids starting with ``<`` are taint sources/sinks resolved to
        non-project callables; they never become graph edges but the taint
        pass consumes them.
        """
        summary = self.summaries[mp]
        out: list[tuple[str, str, float]] = []

        def class_call_targets(
            cid: str, rest: list[str], confidence: float
        ) -> None:
            """Resolve ``<instance of cid>.rest...`` method calls."""
            current = [cid]
            for attr in rest[:-1]:
                next_classes: list[str] = []
                for c in current:
                    next_classes.extend(self.class_attr_type(c, attr))
                current = sorted(set(next_classes))
                confidence = min(confidence, 0.9)
                if not current:
                    return
            method = rest[-1]
            for c in current:
                found = self.lookup_method(c, method)
                if found is not None:
                    out.append((found, "method", confidence))
                for override in self.override_targets(c, method):
                    if override != found:
                        out.append((override, "polymorphic", min(confidence, 0.8)))

        head = chain[0]
        cls = fn.get("cls")
        if head == "self" and cls is not None:
            cid = f"{mp}::{cls}"
            if len(chain) >= 2:
                class_call_targets(cid, chain[1:], 1.0 if len(chain) == 2 else 0.9)
                if len(chain) == 2:
                    # attribute holding a callable instance: resolve __call__
                    for attr_cid in self.class_attr_type(cid, chain[1]):
                        found = self.lookup_method(attr_cid, "__call__")
                        if found is not None:
                            out.append((found, "callable-attr", 0.9))
            return out
        if head == "super()" and cls is not None and len(chain) == 2:
            info = self.classes.get(f"{mp}::{cls}")
            if info is not None:
                for base in info.get("base_ids", []):
                    found = self.lookup_method(base, chain[1])
                    if found is not None:
                        out.append((found, "super", 1.0))
            return out
        # dict-dispatch: TABLE[key]() and TABLE[key].method() fan out to
        # every table entry, conservatively, at dispatch confidence
        if len(chain) == 2 and chain[1] == "[]":
            for entry in summary["dispatch_tables"].get(chain[0], []):
                resolved = self._resolve_function_chain(mp, entry)
                if resolved is not None:
                    out.append((resolved, "dict-dispatch", 0.5))
            return out
        if "[]" in chain:
            return out

        if len(chain) == 1:
            if head in summary["functions"]:
                return [(f"{mp}::{head}", "static", 1.0)]
            if head in summary["classes"]:
                init = self.lookup_method(f"{mp}::{head}", "__init__")
                if init is not None:
                    return [(init, "constructor", 1.0)]
                return []
            resolved = self._resolve_import(mp, head)
            if resolved is not None:
                if resolved[0] == "func":
                    return [(resolved[1], "static", 1.0)]
                if resolved[0] == "class":
                    init = self.lookup_method(resolved[1], "__init__")
                    if init is not None:
                        return [(init, "constructor", 1.0)]
                    return []
            external = self.external_name(mp, chain)
            if external is not None and (
                external in TAINT_SOURCES or external in TAINT_SINKS
            ):
                return [(f"<ext:{external}>", "external", 1.0)]
            return []

        # qualified calls: local variable, imported module/class, or a
        # unique-method-name fallback
        local_chain = fn["local_types"].get(head)
        if local_chain is not None:
            cid = self._resolve_class_chain(mp, local_chain)
            if cid is not None:
                class_call_targets(cid, chain[1:], 0.9)
                return out
        resolved = self._resolve_import(mp, head)
        if resolved is not None:
            if resolved[0] == "module":
                target_mp = resolved[1]
                if len(chain) == 2:
                    target_summary = self.summaries[target_mp]
                    if chain[1] in target_summary["functions"]:
                        return [(f"{target_mp}::{chain[1]}", "static", 1.0)]
                    if chain[1] in target_summary["classes"]:
                        init = self.lookup_method(
                            f"{target_mp}::{chain[1]}", "__init__"
                        )
                        if init is not None:
                            return [(init, "constructor", 1.0)]
                return out
            if resolved[0] == "class":
                # ClassName.method(...) — also covers alternate ctors
                found = self.lookup_method(resolved[1], chain[1])
                if found is not None:
                    return [(found, "method", 1.0)]
                return out
        if head in summary["classes"] and len(chain) == 2:
            found = self.lookup_method(f"{mp}::{head}", chain[1])
            if found is not None:
                return [(found, "method", 1.0)]
            return out
        external = self.external_name(mp, chain)
        if external is not None:
            if external in TAINT_SOURCES or external in TAINT_SINKS:
                return [(f"<ext:{external}>", "external", 1.0)]
            if external.split(".")[0] not in self.modules:
                prefix = external.split(".")[0]
                if summary["imports"].get(prefix) is not None or prefix == external:
                    return out
        # unique-method-name fallback: recorded, never obligating
        method = chain[-1]
        owners = self._method_index.get(method, [])
        if len(owners) == 1:
            found = self.lookup_method(owners[0], method)
            if found is not None:
                return [(found, "unique-name", 0.5)]
        return out

    # ------------------------------------------------------------ traversal
    def out_edges(self, node_id: str):
        for index in self._out.get(node_id, []):
            yield self.edges[index]

    def reachable_from(
        self,
        roots: list[str],
        min_confidence: float,
        skip_cold: bool = False,
    ) -> dict[str, list]:
        """BFS; returns node -> chain of (caller node, call line) hops."""
        chains: dict[str, list] = {}
        queue: list[str] = []
        for root in sorted(roots):
            if root in self.functions and root not in chains:
                chains[root] = []
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for src, dst, kind, confidence, line, cold in self.out_edges(current):
                if confidence < min_confidence:
                    continue
                if skip_cold and cold is not None:
                    continue
                if dst in chains or dst not in self.functions:
                    continue
                chains[dst] = chains[current] + [[src, line]]
                queue.append(dst)
        return chains


def build_graph(summaries: dict[str, dict]) -> CallGraph:
    return CallGraph(summaries)


def canonical_graph_json(graph: CallGraph) -> str:
    """Deterministic JSON artifact for ``repro lint --graph-out``."""
    nodes = {}
    for node_id in sorted(graph.functions):
        fn = graph.functions[node_id]
        nodes[node_id] = {
            "line": fn["line"],
            "effects": sorted({e["rule"] for e in fn["effects"]}),
            "raises_only": fn["raises_only"],
        }
    edges = [
        {
            "from": src, "to": dst, "kind": kind,
            "confidence": confidence, "line": line,
            **({"cold": cold} if cold is not None else {}),
        }
        for src, dst, kind, confidence, line, cold in sorted(
            graph.edges, key=lambda e: (e[0], e[4], e[1], e[2])
        )
    ]
    dynamic = [
        {"from": src, "call": call, "line": line, "confidence": confidence}
        for src, call, line, confidence in sorted(graph.dynamic)
    ]
    doc = {
        "version": GRAPH_VERSION,
        "modules": sorted(graph.summaries),
        "nodes": nodes,
        "edges": edges,
        "dynamic": dynamic,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
