"""Cross-policy invariants the differential fuzzer asserts.

The source paper's core claim is that configuration steering changes
*which configuration executes* a program, never *what the program
computes*.  Concretely, for one program run under every catalogue
policy against the functional reference interpreter:

``completed``
    Every policy reaches ``halt`` under the cycle budget (a ``cutoff``
    or ``deadlock`` outcome is a scheduling bug, not a slow program —
    generated programs are tiny by construction).
``retired-count``
    Every policy commits exactly the reference's dynamic instruction
    count: speculation may fetch down wrong paths, but squashed work
    must never commit.
``final-state``
    Every policy's committed register file equals the reference's
    (NaN-safe on the FP bank: two NaNs agree).
``ipc-bound``
    ``0 < IPC <= min(fetch_width, retire_width)`` — the configuration-
    derived ceiling; more retirements per cycle than the retire width
    is a bookkeeping impossibility.
``crash``
    A policy raising mid-simulation is itself a finding (the fuzzer
    converts the exception; nothing here raises).

Each failed check yields one :class:`Violation` naming the policy and
invariant — the fuzzer attaches these to the minimized reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import ProcessorParams
from repro.core.reference import ReferenceResult
from repro.core.stats import OUTCOME_COMPLETED, SimulationResult

__all__ = ["Violation", "check_result_pair"]


@dataclass(frozen=True)
class Violation:
    """One invariant failure for one policy on one program."""

    invariant: str
    policy: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.policy}: {self.message}"


def _fp_equal(a: float, b: float) -> bool:
    # NaN-safe: two NaNs are the same committed value
    return a == b or (a != a and b != b)


def _register_mismatch(
    got: dict, want: dict
) -> str | None:
    """First differing register between two ``{"int": [...], "fp": [...]}``
    snapshots, rendered for the violation message; None when equal."""
    for i, (g, w) in enumerate(zip(got.get("int", ()), want.get("int", ()))):
        if g != w:
            return f"x{i} = {g!r}, expected {w!r}"
    for i, (g, w) in enumerate(zip(got.get("fp", ()), want.get("fp", ()))):
        if not _fp_equal(g, w):
            return f"f{i} = {g!r}, expected {w!r}"
    return None


def check_result_pair(
    policy: str,
    result: SimulationResult,
    reference: ReferenceResult,
    params: ProcessorParams,
) -> list[Violation]:
    """All invariant violations of one policy's result vs the reference."""
    violations: list[Violation] = []
    if result.outcome != OUTCOME_COMPLETED:
        violations.append(
            Violation(
                "completed",
                policy,
                f"outcome {result.outcome!r} after {result.cycles} cycles "
                f"({result.retired} retired)",
            )
        )
        # without a completed run the remaining checks only echo the same
        # failure; report the root cause alone
        return violations
    if result.retired != reference.executed:
        violations.append(
            Violation(
                "retired-count",
                policy,
                f"retired {result.retired} instructions, reference executed "
                f"{reference.executed}",
            )
        )
    if result.final_registers is not None:
        mismatch = _register_mismatch(
            result.final_registers, reference.registers.snapshot()
        )
        if mismatch is not None:
            violations.append(Violation("final-state", policy, mismatch))
    ceiling = min(params.fetch_width, params.retire_width)
    if not 0.0 < result.ipc <= ceiling:
        violations.append(
            Violation(
                "ipc-bound",
                policy,
                f"IPC {result.ipc:.4f} outside (0, {ceiling}] "
                f"({result.retired} retired / {result.cycles} cycles)",
            )
        )
    return violations

