"""The checked-in analysis configuration (``analysis/layers.toml``).

One TOML table drives everything the rules need to know about the tree:

``package``
    Name of the root package the layer map describes (``"repro"``).
``[layers]``
    The allowed import DAG: ``layer = [layers it may import]``.  A layer
    is a top-level package (``sched``, ``fabric``, ...) or a top-level
    module (``cli``, ``errors``).  Importing inside one's own layer is
    always allowed; any edge not in the table is a ``LAY001`` finding,
    and a module whose layer is missing from the table is ``LAY002``.
``[hotzones]``
    Per-cycle code: ``"repro/sched/ruu.py" = ["RegisterUpdateUnit.tick"]``
    maps a root-relative file to the qualified functions the hot-path
    rules police.  The list is measured: every function the cycle loop
    calls on at least 1 in 100 of a run's cycles must be in it
    (``tests/core/test_cycle_budget.py``).
``[scopes]``
    Root-relative path prefixes bounding the determinism and concurrency
    families; ``config_modules``, the only places in the determinism
    scope allowed to read ``os.environ``; and ``event_log_modules``, the
    only serving/telemetry modules allowed to print or log directly.

Parsed with :mod:`tomllib` on Python ≥ 3.11 and a minimal built-in
reader (tables, string keys, strings and string lists — exactly the
subset the schema uses) elsewhere, keeping the engine stdlib-only on
every supported interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback
    tomllib = None

from repro.errors import ConfigurationError

__all__ = ["AnalysisConfig", "load_config", "DEFAULT_CONFIG_PATH"]

#: repo-relative location of the committed configuration.
DEFAULT_CONFIG_PATH = Path("analysis") / "layers.toml"


def _parse_minimal_toml(text: str) -> dict:
    """Restricted TOML reader for the layers schema (3.10 fallback).

    Supports ``[table]`` headers, bare or double-quoted keys, and values
    that are double-quoted strings or (possibly multi-line) lists of
    double-quoted strings.  Anything else is a configuration error.
    """
    root: dict = {}
    table = root
    pending_key: str | None = None
    pending_items: list[str] | None = None

    def parse_list_items(chunk: str) -> list[str]:
        items: list[str] = []
        for part in chunk.split(","):
            part = part.strip()
            if not part:
                continue
            if not (part.startswith('"') and part.endswith('"')):
                raise ConfigurationError(
                    f"layers.toml fallback parser: unsupported list item {part!r}"
                )
            items.append(part[1:-1])
        return items

    for raw in text.splitlines():
        line = raw.strip()
        # strip comments, but never inside a quoted string
        if "#" in line:
            out, in_str = [], False
            for ch in line:
                if ch == '"':
                    in_str = not in_str
                if ch == "#" and not in_str:
                    break
                out.append(ch)
            line = "".join(out).strip()
        if not line:
            continue
        if pending_key is not None:
            closing = line.endswith("]")
            chunk = line[:-1] if closing else line
            pending_items.extend(parse_list_items(chunk))
            if closing:
                table[pending_key] = pending_items
                pending_key, pending_items = None, None
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            table = root.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"layers.toml fallback parser: cannot parse line {raw!r}"
            )
        key, value = (s.strip() for s in line.split("=", 1))
        if key.startswith('"') and key.endswith('"'):
            key = key[1:-1]
        if value.startswith("[") and value.endswith("]"):
            table[key] = parse_list_items(value[1:-1])
        elif value.startswith("["):
            pending_key, pending_items = key, parse_list_items(value[1:])
        elif value.startswith('"') and value.endswith('"'):
            table[key] = value[1:-1]
        else:
            raise ConfigurationError(
                f"layers.toml fallback parser: unsupported value {value!r}"
            )
    return root


@dataclass(slots=True)
class AnalysisConfig:
    """Parsed, validated view of ``analysis/layers.toml``."""

    #: root package the layer names live under (``repro``).
    package: str = "repro"
    #: layer -> layers it may import from (its own layer is implicit).
    layers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: root-relative file -> qualified hot functions.
    hotzones: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: path prefixes scoping the determinism rules.
    determinism_scope: tuple[str, ...] = ()
    #: path prefixes scoping the concurrency rules.
    concurrency_scope: tuple[str, ...] = ()
    #: modules allowed to read the process environment.
    config_modules: tuple[str, ...] = ()
    #: the modules implementing the structured event log — the only files
    #: in the serving/telemetry layers allowed to use print/logging
    #: directly (OBS001).
    event_log_modules: tuple[str, ...] = ()

    # ------------------------------------------------------------- lookups
    def layer_of(self, module_path: str) -> str | None:
        """Layer of a root-relative file path, or None outside the package.

        ``repro/sched/ruu.py`` -> ``sched``; the top-level module
        ``repro/cli.py`` -> ``cli``; the package root
        ``repro/__init__.py`` -> ``__init__``.
        """
        parts = module_path.split("/")
        if len(parts) < 2 or parts[0] != self.package:
            return None
        if len(parts) == 2:
            return parts[1][:-3] if parts[1].endswith(".py") else parts[1]
        return parts[1]

    def layer_of_import(self, dotted: str) -> str | None:
        """Layer an ``import repro.x.y`` style target belongs to."""
        parts = dotted.split(".")
        if parts[0] != self.package:
            return None
        return parts[1] if len(parts) > 1 else "__init__"

    def edge_allowed(self, src_layer: str, dst_layer: str) -> bool:
        if src_layer == dst_layer:
            return True
        allowed = self.layers.get(src_layer)
        return allowed is not None and dst_layer in allowed

    def in_scope(self, module_path: str, prefixes: tuple[str, ...]) -> bool:
        return any(
            module_path == p or module_path.startswith(p.rstrip("/") + "/")
            for p in prefixes
        )

    def is_config_module(self, module_path: str) -> bool:
        return module_path in self.config_modules


#: the schema: top-level keys and ``[scopes]`` keys.  Any other key is a
#: configuration error, so a misspelt or retired table cannot be ignored.
_ROOT_KEYS = ("package", "layers", "hotzones", "scopes")
_SCOPE_KEYS = ("determinism", "concurrency", "config_modules", "event_log_modules")


def _check_keys(table: dict, known: tuple[str, ...], context: str) -> None:
    unknown = sorted(set(table) - set(known))
    if unknown:
        raise ConfigurationError(
            f"{context}: unknown key(s) {', '.join(map(repr, unknown))} "
            f"(expected {', '.join(known)})"
        )


def _as_str_tuple(value, context: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(f"{context} must be a list of strings, got {value!r}")
    return tuple(value)


def load_config(path: str | Path) -> AnalysisConfig:
    """Read and validate ``analysis/layers.toml``."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read analysis config {path}: {exc}") from exc
    if tomllib is not None:
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"invalid TOML in {path}: {exc}") from exc
    else:  # pragma: no cover - exercised only on Python 3.10
        raw = _parse_minimal_toml(text)

    _check_keys(raw, _ROOT_KEYS, str(path))
    package = raw.get("package", "repro")
    if not isinstance(package, str) or not package:
        raise ConfigurationError(f"{path}: 'package' must be a non-empty string")
    layers = {
        str(name): _as_str_tuple(deps, f"{path}: layers.{name}")
        for name, deps in raw.get("layers", {}).items()
    }
    for name, deps in layers.items():
        for dep in deps:
            if dep not in layers:
                raise ConfigurationError(
                    f"{path}: layer {name!r} imports undeclared layer {dep!r}"
                )
    hotzones = {
        str(file): _as_str_tuple(funcs, f"{path}: hotzones.{file}")
        for file, funcs in raw.get("hotzones", {}).items()
    }
    scopes = raw.get("scopes", {})
    _check_keys(scopes, _SCOPE_KEYS, f"{path}: [scopes]")
    return AnalysisConfig(
        package=package,
        layers=layers,
        hotzones=hotzones,
        determinism_scope=_as_str_tuple(
            scopes.get("determinism", []), f"{path}: scopes.determinism"
        ),
        concurrency_scope=_as_str_tuple(
            scopes.get("concurrency", []), f"{path}: scopes.concurrency"
        ),
        config_modules=_as_str_tuple(
            scopes.get("config_modules", []), f"{path}: scopes.config_modules"
        ),
        event_log_modules=_as_str_tuple(
            scopes.get("event_log_modules", []),
            f"{path}: scopes.event_log_modules",
        ),
    )
