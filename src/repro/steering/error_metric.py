"""The reference configuration-error metric: exact division.

The hardware metric of Fig. 3 scores a candidate configuration as

    error(c) = sum over types t of  required[t] >> shift(available_c[t])

— each required count divided, approximately, by the candidate's
available count rounded down to a power of two (the gates are in
:mod:`repro.circuits.selection_netlist`).  :func:`exact_error` computes
the same sum with true division; the E-CEM ablation
(``use_exact_metric``) and the Fig. 3 study use it to quantify what the
shifter approximation costs.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["exact_error"]


def exact_error(required: Sequence[int], available: Sequence[int]) -> float:
    """Reference metric with true division: sum_t required[t] / available[t].

    ``available`` counts include the fixed units, so every entry is >= 1
    for the shipped architecture; a zero available count contributes
    ``required`` cycles per instruction (the FFU-less pathological case)
    via a large penalty.
    """
    total = 0.0
    for req, avail in zip(required, available):
        if avail <= 0:
            total += float(req) * 8.0  # no unit at all: heavy penalty
        else:
            total += req / avail
    return total
