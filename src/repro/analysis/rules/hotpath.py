"""Hot-path rules (``HOT``): no hidden per-cycle work in the cycle loop.

``[hotzones]`` in ``analysis/layers.toml`` lists the per-cycle functions:
every function the cycle loop calls on at least 1 in 100 simulated
cycles.  The list is measured, not inferred:
``tests/core/test_cycle_budget.py`` profiles the policy catalogue and
fails, naming the function and its rate, when the loop crosses that rate
in a function the list lacks.  Inside a listed function the rules flag
what costs time on every call without adding a Python call, so the call
budget of that test cannot see it.

Code inside a ``raise`` is exempt (so is a function whose body only
raises): error paths may allocate.  A nested ``def``, ``class`` or
``lambda`` body is its own scope, checked only when it is listed itself.

HOT007 must know which names denote enum classes, across modules and
re-exports: :func:`enum_names` derives that from every file of the
package, in the engine's one pass.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, register

__all__ = ["enum_names", "qualified_functions", "unresolved_hotzones"]

#: the stdlib ``enum`` bases (and functional-API constructors): a member
#: loaded through such a class goes through the metaclass's slow path.
_ENUM_BASES = frozenset({"Enum", "IntEnum", "Flag", "IntFlag", "StrEnum"})

#: node type -> (rule, what) for the per-call allocations.
_ALLOCATIONS = {
    ast.ListComp: ("HOT001", "list comprehension"),
    ast.SetComp: ("HOT001", "set comprehension"),
    ast.DictComp: ("HOT001", "dict comprehension"),
    ast.GeneratorExp: ("HOT001", "generator expression"),
    ast.JoinedStr: ("HOT003", "f-string"),
    ast.Lambda: ("HOT004", "lambda"),
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def qualified_functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Qualified name (``Class.method``, ``outer.inner``) -> definition."""
    out: dict[str, ast.AST] = {}

    def walk(body: list, prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, _SCOPES):
                name = prefix + stmt.name
                if not isinstance(stmt, ast.ClassDef):
                    out[name] = stmt
                walk(stmt.body, name + ".")

    walk(tree.body, "")
    return out


def unresolved_hotzones(
    config: AnalysisConfig, trees: dict[str, ast.Module]
) -> list[str]:
    """``[hotzones]`` entries that name no function in ``trees``.

    The rules would skip such an entry, so a renamed or deleted function
    would silently stop being checked; ``repro lint`` reports each one as
    a configuration error instead.
    """
    out: list[str] = []
    for module_path, names in sorted(config.hotzones.items()):
        tree = trees.get(module_path)
        if tree is None:
            out.append(f"hotzones: {module_path}")
            continue
        defined = qualified_functions(tree)
        out.extend(
            f"hotzones: {module_path}::{name}"
            for name in names
            if name not in defined
        )
    return out


# --------------------------------------------------------------- enum index
def _chain(node: ast.AST) -> tuple[str, ...] | None:
    """``Name`` -> (name,); ``Name.attr`` -> (name, attr); else None."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr)
    return None


def _imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Bound name -> (module, member or None for the module itself).

    Function-level imports (common here, to break layering cycles) count
    too; a module-level binding wins a name collision.
    """
    out: dict[str, tuple[str, str | None]] = {}
    for node in ast.walk(tree):  # breadth first: module level comes first
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out.setdefault(alias.asname, (alias.name, None))
                else:
                    head = alias.name.split(".")[0]
                    out.setdefault(head, (head, None))
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                out.setdefault(alias.asname or alias.name, (node.module, alias.name))
    return out


def enum_names(trees: dict[str, ast.Module]) -> dict[str, frozenset[str]]:
    """Module path -> the names that denote an enum class in it.

    An enum class subclasses a stdlib enum base, directly or through
    project classes (``class Sub(Base)``), or is built with the
    functional API (``Opcode = enum.Enum(...)``); a name imported or
    re-exported from a module where it denotes one denotes one too.
    """
    path_of: dict[str, str] = {}  # dotted module -> module path
    imports_of: dict[str, dict] = {}
    bases_of: dict[str, dict[str, list]] = {}  # module -> class -> bases
    enums: dict[str, set[str]] = {}  # module -> names found to be enums
    for module_path, tree in trees.items():
        dotted = module_path[:-3].replace("/", ".").removesuffix(".__init__")
        imports = _imports(tree)
        path_of[dotted] = module_path
        imports_of[dotted] = imports
        bases_of[dotted] = {
            stmt.name: [_chain(base) for base in stmt.bases]
            for stmt in tree.body
            if isinstance(stmt, ast.ClassDef)
        }
        enums[dotted] = {  # the functional API: X = enum.Enum(...)
            target.id
            for stmt in tree.body
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
            for target in stmt.targets
            if isinstance(target, ast.Name)
            and _is_enum_base(imports, _chain(stmt.value.func))
        }

    def denotes_enum(dotted: str, chain) -> bool:
        imports = imports_of[dotted]
        if chain is None:
            return False
        if _is_enum_base(imports, chain):
            return True
        if len(chain) == 1:
            return chain[0] in enums[dotted]
        module, member = imports.get(chain[0], (None, None))
        if member is not None:  # from package import module
            module = f"{module}.{member}"
        return chain[1] in enums.get(module, ())

    changed = True
    while changed:
        changed = False
        for dotted, own in enums.items():
            found = {
                name for name, bases in bases_of[dotted].items()
                if any(denotes_enum(dotted, base) for base in bases)
            }
            found.update(
                name for name, (module, member) in imports_of[dotted].items()
                if member in enums.get(module, ())
            )
            if not found <= own:
                own |= found
                changed = True
    return {path_of[dotted]: frozenset(own) for dotted, own in enums.items()}


def _is_enum_base(imports: dict, chain: tuple[str, ...] | None) -> bool:
    """Whether ``chain`` names a stdlib enum base (``Enum``,
    ``enum.IntEnum``, ...) under the module's ``imports``."""
    if chain is None:
        return False
    if len(chain) == 1:
        module, member = imports.get(chain[0], (None, None))
        return module == "enum" and member in _ENUM_BASES
    return imports.get(chain[0]) == ("enum", None) and chain[1] in _ENUM_BASES


# -------------------------------------------------------------------- sites
def _run_with(fn: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``fn``'s body that run with it: not a ``raise``, nor
    the body of a nested definition or lambda."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Raise, *_SCOPES)):
            continue
        yield node
        if not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))


def _sites(ctx: FileContext) -> Iterator[tuple[str, ast.AST, str]]:
    """(rule, node, message) for each HOT site of the file's listed
    functions."""
    listed = ctx.config.hotzones.get(ctx.module_path)
    if not listed:
        return
    functions = qualified_functions(ctx.tree)
    for qualname in listed:
        fn = functions.get(qualname)
        if fn is None:
            continue
        where = f"hot zone '{qualname}'"
        stored = {
            node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        for node in _run_with(fn):
            allocation = _ALLOCATIONS.get(type(node))
            if allocation is not None:
                rule, what = allocation
                yield rule, node, f"{what} in {where}"
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in ctx.enum_names
                and node.value.id not in stored
            ):
                yield "HOT007", node, (
                    f"enum member {node.value.id}.{node.attr} loaded through "
                    f"its class in {where}; the enum metaclass makes that a "
                    f"slow attribute load — hoist it to a module constant or "
                    f"a precomputed table"
                )


class HotRule(Rule):
    """A hot-path rule: the file's HOT sites carrying this rule's id."""

    family = "hot-path"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for rule, node, message in _sites(ctx):
            if rule == self.id:
                yield ctx.finding(rule, node, message)


@register
class HotComprehension(HotRule):
    id = "HOT001"
    summary = "comprehension or generator expression in per-cycle code"


@register
class HotFString(HotRule):
    id = "HOT003"
    summary = "f-string formatting in per-cycle code"


@register
class HotLambda(HotRule):
    id = "HOT004"
    summary = "lambda created in per-cycle code"


@register
class HotEnumClassLoad(HotRule):
    id = "HOT007"
    summary = "enum member loaded through its class (Opcode.ADD) in per-cycle code"
