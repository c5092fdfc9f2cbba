"""Canonical JSON encoding for result payloads.

Everything that persists or compares a result record — the golden-trace
corpus (``repro.verify.goldens``), the ``RunStore``'s metric/spec
payloads, the job queue's map of keyed specs, the CLI's ``--json``
output — must serialise through :func:`canonical_dumps`, so that one
byte string corresponds to one value on every platform:

* object keys are sorted (``sort_keys=True``),
* separators carry no incidental whitespace (compact form) unless the
  caller asks for a ``pretty`` human-reviewable rendering,
* non-finite floats (NaN, +/-Inf) are rejected instead of being emitted
  as the non-standard ``NaN``/``Infinity`` tokens,
* negative zero is normalised to ``0.0`` (the two compare equal but
  render differently), and
* output is ASCII-only (``ensure_ascii=True``).

Float formatting itself relies on ``repr``'s shortest-round-trip
algorithm, which is identical across CPython platforms for IEEE-754
doubles — combined with the rules above, equal values always produce
equal bytes.  The ``DET005`` lint rule enforces that the modules listed
under ``[scopes] canonical_json`` in ``analysis/layers.toml`` never
call ``json.dumps`` directly.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["canonical_dumps", "canonical_normalise"]


def canonical_normalise(obj: Any, _path: str = "$") -> Any:
    """Validate and normalise a JSON-serialisable value.

    Returns an equal structure with ``-0.0`` rewritten to ``0.0``;
    raises :class:`~repro.errors.ConfigurationError` (with the offending
    path) on non-finite floats or values JSON cannot represent.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ConfigurationError(
                f"non-finite float at {_path} cannot be canonically encoded"
            )
        return 0.0 if obj == 0.0 else obj
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, (str, int, float, bool)) and key is not None:
                raise ConfigurationError(
                    f"non-scalar object key {key!r} at {_path}"
                )
            out[key] = canonical_normalise(value, f"{_path}.{key}")
        return out
    if isinstance(obj, (list, tuple)):
        return [
            canonical_normalise(v, f"{_path}[{i}]") for i, v in enumerate(obj)
        ]
    raise ConfigurationError(
        f"value of type {type(obj).__name__} at {_path} is not JSON-serialisable"
    )


def canonical_dumps(obj: Any, *, pretty: bool = False) -> str:
    """Serialise ``obj`` to the canonical JSON byte-for-byte form.

    ``pretty`` switches to an indented rendering (for committed,
    human-reviewed files like the golden corpus); key order and float
    formatting are identical in both modes, so the two renderings parse
    to the same value and differ only in whitespace.
    """
    normalised = canonical_normalise(obj)
    if pretty:
        return json.dumps(
            normalised, sort_keys=True, allow_nan=False, indent=2,
            ensure_ascii=True,
        )
    return json.dumps(
        normalised, sort_keys=True, allow_nan=False, separators=(",", ":"),
        ensure_ascii=True,
    )
