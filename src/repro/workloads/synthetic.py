"""Seeded synthetic workload generator.

Generates terminating programs (a counted loop around a generated body)
whose body follows a target functional-unit mix and dependency density.
Useful for sweeping the steering mechanism across instruction-mix regimes
that real kernels only sample sparsely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate

from repro.errors import WorkloadError
from repro.isa.assembler import assemble
from repro.isa.futypes import FU_TYPES, FUType
from repro.isa.program import Program

__all__ = ["MixSpec", "synthetic_program", "emit_body", "INT_MIX", "MEM_MIX", "FP_MIX", "BALANCED_MIX"]

_INT_POOL = [f"x{i}" for i in range(1, 10)]
_FP_POOL = [f"f{i}" for i in range(1, 10)]
_BUFFER_WORDS = 64

_INT_ALU_OPS = ["add", "sub", "xor", "and", "or", "sll", "srl"]
_INT_MDU_OPS = ["mul", "mul", "mulh", "div", "rem"]
_FP_ALU_OPS = ["fadd", "fsub", "fmin", "fmax"]
_FP_MDU_OPS = ["fmul", "fmul", "fmul", "fdiv"]


@dataclass(frozen=True)
class MixSpec:
    """A target instruction mix: relative weight per functional-unit type."""

    name: str
    weights: dict[FUType, float]
    #: probability an operand is one of the two most recent results
    #: (higher = longer dependence chains = less ILP).
    dep_density: float = 0.3

    def __post_init__(self) -> None:
        if not self.weights:
            raise WorkloadError(f"mix {self.name!r} has no weights")
        if any(w < 0 for w in self.weights.values()):
            raise WorkloadError(f"mix {self.name!r} has negative weights")
        if sum(self.weights.values()) <= 0:
            raise WorkloadError(f"mix {self.name!r} weights sum to zero")
        if not 0.0 <= self.dep_density <= 1.0:
            raise WorkloadError("dep_density must be in [0, 1]")

    def normalised(self) -> dict[FUType, float]:
        total = sum(self.weights.values())
        return {t: self.weights.get(t, 0.0) / total for t in FU_TYPES}


INT_MIX = MixSpec("int", {FUType.INT_ALU: 0.65, FUType.INT_MDU: 0.3, FUType.LSU: 0.05})
MEM_MIX = MixSpec("mem", {FUType.INT_ALU: 0.25, FUType.LSU: 0.7, FUType.INT_MDU: 0.05})
FP_MIX = MixSpec(
    "fp",
    {FUType.FP_ALU: 0.4, FUType.FP_MDU: 0.35, FUType.LSU: 0.2, FUType.INT_ALU: 0.05},
)
BALANCED_MIX = MixSpec(
    "balanced",
    {
        FUType.INT_ALU: 0.3,
        FUType.INT_MDU: 0.15,
        FUType.LSU: 0.25,
        FUType.FP_ALU: 0.15,
        FUType.FP_MDU: 0.15,
    },
)


class _BodyEmitter:
    """Emits one instruction body following a mix, tracking recent results."""

    def __init__(self, rng: random.Random, mix: MixSpec) -> None:
        self.rng = rng
        self.mix = mix
        self._recent_int: list[str] = []
        self._recent_fp: list[str] = []
        self._mem_cursor = 0

    def _pick(self, pool: list[str], recent: list[str]) -> str:
        if recent and self.rng.random() < self.mix.dep_density:
            return self.rng.choice(recent)
        return self.rng.choice(pool)

    def _produced(self, reg: str, recent: list[str]) -> None:
        recent.append(reg)
        if len(recent) > 2:
            recent.pop(0)

    def _mem_offset(self) -> int:
        self._mem_cursor = (self._mem_cursor + 1) % _BUFFER_WORDS
        return self._mem_cursor * 4

    def emit(self, fu_type: FUType) -> str:
        rng = self.rng
        if fu_type is FUType.INT_ALU:
            op = rng.choice(_INT_ALU_OPS)
            rd = rng.choice(_INT_POOL)
            line = f"{op} {rd}, {self._pick(_INT_POOL, self._recent_int)}, " \
                   f"{self._pick(_INT_POOL, self._recent_int)}"
            self._produced(rd, self._recent_int)
            return line
        if fu_type is FUType.INT_MDU:
            op = rng.choice(_INT_MDU_OPS)
            rd = rng.choice(_INT_POOL)
            line = f"{op} {rd}, {self._pick(_INT_POOL, self._recent_int)}, " \
                   f"{self._pick(_INT_POOL, self._recent_int)}"
            self._produced(rd, self._recent_int)
            return line
        if fu_type is FUType.LSU:
            off = self._mem_offset()
            kind = rng.random()
            if kind < 0.4:
                rd = rng.choice(_INT_POOL)
                self._produced(rd, self._recent_int)
                return f"lw {rd}, buf+{off}(x0)"
            if kind < 0.7:
                rs = self._pick(_INT_POOL, self._recent_int)
                return f"sw {rs}, buf+{off}(x0)"
            if kind < 0.85:
                fd = rng.choice(_FP_POOL)
                self._produced(fd, self._recent_fp)
                return f"flw {fd}, buf+{off}(x0)"
            fs = self._pick(_FP_POOL, self._recent_fp)
            return f"fsw {fs}, buf+{off}(x0)"
        if fu_type is FUType.FP_ALU:
            op = rng.choice(_FP_ALU_OPS)
            fd = rng.choice(_FP_POOL)
            line = f"{op} {fd}, {self._pick(_FP_POOL, self._recent_fp)}, " \
                   f"{self._pick(_FP_POOL, self._recent_fp)}"
            self._produced(fd, self._recent_fp)
            return line
        if fu_type is FUType.FP_MDU:
            op = rng.choice(_FP_MDU_OPS)
            fd = rng.choice(_FP_POOL)
            line = f"{op} {fd}, {self._pick(_FP_POOL, self._recent_fp)}, " \
                   f"{self._pick(_FP_POOL, self._recent_fp)}"
            self._produced(fd, self._recent_fp)
            return line
        raise WorkloadError(f"unknown unit type {fu_type!r}")


def emit_body(rng: random.Random, mix: MixSpec, body_len: int) -> list[str]:
    """Generate ``body_len`` instructions following the mix."""
    if body_len <= 0:
        raise WorkloadError("body_len must be positive")
    weights = mix.normalised()
    types = list(FU_TYPES)
    # ``choices`` accumulates plain weights into these same floats itself
    # on every call; accumulated once, the draws are identical
    cum_weights = list(accumulate(weights[t] for t in types))
    emitter = _BodyEmitter(rng, mix)
    return [emitter.emit(rng.choices(types, cum_weights=cum_weights)[0])
            for _ in range(body_len)]


def _prologue() -> list[str]:
    """Initialise the register pools with small non-zero values."""
    lines = []
    for i, reg in enumerate(_INT_POOL, start=1):
        lines.append(f"li {reg}, {i * 3 + 1}")
    for i, reg in enumerate(_FP_POOL, start=1):
        lines.append(f"flw {reg}, consts+{(i - 1) * 4}(x0)")
    return lines


def _data_section() -> list[str]:
    consts = ", ".join(repr(0.5 + 0.25 * i) for i in range(len(_FP_POOL)))
    return [
        ".data",
        f"consts: .float {consts}",
        f"buf:    .space {_BUFFER_WORDS * 4}",
        ".text",
    ]


def synthetic_program(
    mix: MixSpec,
    body_len: int = 24,
    iterations: int = 50,
    seed: int = 0,
) -> Program:
    """A terminating synthetic workload: ``iterations`` x a ``body_len``-
    instruction body following ``mix``, plus prologue and loop control."""
    if iterations <= 0:
        raise WorkloadError("iterations must be positive")
    rng = random.Random(seed)
    lines = _data_section()
    lines.append("main:")
    lines += _prologue()
    lines.append(f"li x20, {iterations}")
    lines.append("loop:")
    lines += emit_body(rng, mix, body_len)
    lines.append("addi x20, x20, -1")
    lines.append("bne x20, x0, loop")
    lines.append("halt")
    return assemble("\n".join(lines))
