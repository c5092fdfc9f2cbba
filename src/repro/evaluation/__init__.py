"""Evaluation harness: regenerates every table and figure of the paper.

The paper's artifacts are architectural specifications and worked examples
(Tables 1-2, Figures 1-7); :mod:`repro.evaluation.artifacts` regenerates
each one executably from the implementation.  The quantitative experiments
the paper motivates but does not report (E-IPC … E-SPEC in DESIGN.md) live
in :mod:`repro.evaluation.experiments`.  ``repro report``
(:mod:`repro.evaluation.harness`) runs them all and checks the paper's
claims, stated once in :mod:`repro.evaluation.claims`, against their
metrics.
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
from repro.evaluation.experiments import (
    run_cem_ablation,
    run_circuit_cost_report,
    run_ipc_comparison,
    run_orthogonality_study,
    run_phase_adaptation,
    run_queue_depth_sweep,
    run_reconfig_latency_sweep,
)
from repro.evaluation.report import render_table

__all__ = [
    "table1",
    "table2",
    "figure1_inventory",
    "figure2_selection_demo",
    "figure3_cem_study",
    "figure456_wakeup_example",
    "figure7_availability_check",
    "run_ipc_comparison",
    "run_reconfig_latency_sweep",
    "run_phase_adaptation",
    "run_queue_depth_sweep",
    "run_cem_ablation",
    "run_orthogonality_study",
    "run_circuit_cost_report",
    "render_table",
    "demand_profile",
    "design_basis",
    "profile_cost",
]
