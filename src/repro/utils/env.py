"""The one place the model reads the process environment.

Environment variables are hidden inputs: a simulation whose behaviour
depends on one produces results that a content-addressed cache key (see
:func:`repro.evaluation.batch.job_key`) cannot distinguish.  The DET004
lint rule therefore bans ``os.environ``/``os.getenv`` everywhere in the
model layers except the modules named under ``scopes.config_modules`` in
``analysis/layers.toml`` — which is this module.  Debug toggles that may
legitimately come from the environment (they change *checking*, never
results) are read here, once, through :func:`env_flag`.
"""

from __future__ import annotations

import os

__all__ = ["env_flag", "CROSSCHECK"]

#: values treated as "unset/false" for boolean debug toggles.
_FALSE_VALUES = ("", "0", "false", "no", "off")


def env_flag(name: str, default: bool = False) -> bool:
    """Read a boolean debug toggle from the environment.

    Unset or an empty/"0"/"false"/"no"/"off" value (case-insensitive)
    yields ``default``-or-False semantics: an unset variable returns
    ``default``, a set-but-falsy value returns False, anything else True.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSE_VALUES


#: ``REPRO_AVAILABILITY_CROSSCHECK``: arms the issue step's debug
#: cross-checks (an availability cache built while it is set rescans on
#: every query; the register update unit pins the derived requests and
#: the packed wake-up kernel to direct and reference evaluations).
CROSSCHECK = env_flag("REPRO_AVAILABILITY_CROSSCHECK")
