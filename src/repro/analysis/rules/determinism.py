"""Determinism rules (``DET``): a result depends only on its job's inputs.

Content-keyed result caching (:func:`repro.evaluation.batch.job_key`)
and the goldens are sound only because a simulation's outcome depends on
nothing but the inputs the key hashes.  A wall-clock read or an unseeded
draw that reaches a result changes it from run to run, and the goldens
and the tests that run a job twice catch that.  An environment read does
not change between runs, so only ``DET004`` catches it: within the
packages the ``[scopes] determinism`` table names, only the declared
config modules may read ``os.environ``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule, register


def _in_scope(ctx: FileContext) -> bool:
    return ctx.config.in_scope(ctx.module_path, ctx.config.determinism_scope)


@register
class EnvRead(Rule):
    id = "DET004"
    family = "determinism"
    summary = "os.environ read outside the config layer"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not _in_scope(ctx) or ctx.config.is_config_module(ctx.module_path):
            return
        for node in ast.walk(ctx.tree):
            hit = None
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                hit = "os.environ"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "getenv"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                hit = "os.getenv"
            if hit is not None:
                yield ctx.finding(
                    self.id,
                    node,
                    f"{hit} read in the core model hides an input from the "
                    "content key; route it through the declared config "
                    "modules (scopes.config_modules) instead",
                )
