"""Evaluation harness: regenerates every table and figure of the paper.

The paper's artifacts are architectural specifications and worked examples
(Tables 1-2, Figures 1-7); :mod:`repro.evaluation.artifacts` regenerates
each one executably from the implementation.  The quantitative experiments
the paper motivates but does not report (E-IPC … E-SPEC in DESIGN.md) are
the :data:`~repro.evaluation.experiments.EXPERIMENTS` table: each one a
function of the report scale and a batch runner that owns its inputs.
``repro report`` (:mod:`repro.evaluation.harness`) runs them all and
checks the paper's claims, stated once in :mod:`repro.evaluation.claims`,
against their metrics.
"""

from repro.evaluation.basis_search import demand_profile, design_basis, profile_cost
from repro.evaluation.artifacts import (
    figure1_inventory,
    figure2_selection_demo,
    figure3_cem_study,
    figure456_wakeup_example,
    figure7_availability_check,
    table1,
    table2,
)
from repro.evaluation.experiments import EXPERIMENTS
from repro.evaluation.report import render_table

__all__ = [
    "table1",
    "table2",
    "figure1_inventory",
    "figure2_selection_demo",
    "figure3_cem_study",
    "figure456_wakeup_example",
    "figure7_availability_check",
    "EXPERIMENTS",
    "render_table",
    "demand_profile",
    "design_basis",
    "profile_cost",
]
