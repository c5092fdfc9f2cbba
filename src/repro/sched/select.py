"""Grant arbitration between requesting instructions.

The wake-up logic is select-free [9]: it only raises execution *requests*;
"contention between instructions must be handled by the scheduler after
multiple instructions that use the same resources request execution."
This module is that scheduler: it hands each idle unit to the **oldest**
requesting instruction of its type (oldest-first is the classical
heuristic — older instructions unblock more dependents).

:func:`select_grants` is the *reference* arbitration.  The hot path in
:meth:`repro.sched.ruu.RegisterUpdateUnit.issue_and_execute` inlines the
same policy over its age-ordered window and the requests it derives from
the wake-up kernel (no triple list, no sort); the scheduler equivalence
tests pin the two to identical grant sequences.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.isa.futypes import FUType

__all__ = ["select_grants"]


def select_grants(
    requests: Sequence[tuple[int, int, FUType]],
    idle_units: dict[FUType, int],
) -> list[int]:
    """Choose which requests receive execution grants this cycle.

    ``requests`` holds ``(row, seq, fu_type)`` triples of all rows whose
    wake-up logic asserted a request; ``idle_units`` the number of idle
    units per type.  Returns the granted row indices, oldest (smallest
    seq) first per type.
    """
    remaining = dict(idle_units)
    granted: list[int] = []
    for row, _seq, fu_type in sorted(requests, key=lambda r: r[1]):
        if remaining.get(fu_type, 0) > 0:
            remaining[fu_type] -= 1
            granted.append(row)
    return granted
