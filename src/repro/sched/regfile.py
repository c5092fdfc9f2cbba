"""Architectural register files: 32 integer (x0 = 0) + 32 floating-point."""

from __future__ import annotations

from repro.errors import SchedulerError
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS

__all__ = ["RegisterFile"]


class RegisterFile:
    """Committed architectural state, written in order at retirement."""

    def __init__(self) -> None:
        self._int = [0] * NUM_INT_REGS
        self._fp = [0.0] * NUM_FP_REGS
        #: register class -> its committed values (treat as read-only: the
        #: scheduler's operand reads index it directly).
        self.banks = {"int": self._int, "fp": self._fp}

    def read(self, reg_class: str, index: int) -> int | float:
        if reg_class == "int":
            return self._int[index]
        if reg_class == "fp":
            return self._fp[index]
        raise SchedulerError(f"unknown register class {reg_class!r}")

    def write(self, reg_class: str, index: int, value: int | float) -> None:
        if reg_class == "int":
            if index != 0:  # x0 is hard-wired to zero
                self._int[index] = int(value) & 0xFFFFFFFF
        elif reg_class == "fp":
            self._fp[index] = float(value)
        else:
            raise SchedulerError(f"unknown register class {reg_class!r}")

    # convenience accessors for tests and examples -----------------------
    def x(self, index: int) -> int:
        """Integer register value (unsigned 32-bit)."""
        return self._int[index]

    def f(self, index: int) -> float:
        """Floating-point register value."""
        return self._fp[index]

    def snapshot(self) -> dict:
        return {"int": list(self._int), "fp": list(self._fp)}
