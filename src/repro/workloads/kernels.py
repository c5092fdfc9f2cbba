"""Kernel library: real programs in the repro ISA with golden results.

Every kernel stores its result(s) to labelled data memory and carries the
expected values (computed in Python with matching semantics), so each
simulated run doubles as an end-to-end functional check of the whole
processor.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.frontend.memory import DataMemory
from repro.isa.assembler import assemble
from repro.isa.futypes import FUType
from repro.isa.program import Program
from repro.isa.semantics import f32

__all__ = [
    "Kernel",
    "sum_reduction",
    "dot_product",
    "saxpy",
    "fir_filter",
    "matmul",
    "memcpy",
    "checksum",
    "newton_sqrt",
    "all_kernels",
    "kernel_factories",
    "kernel_by_name",
]


@dataclass
class Kernel:
    """A runnable workload with its golden expected memory state."""

    name: str
    description: str
    program: Program
    #: expected u32 words: data label -> value (single-word labels).
    expected_words: dict[str, int] = field(default_factory=dict)
    #: expected float32 values: data label -> value.
    expected_floats: dict[str, float] = field(default_factory=dict)
    #: functional-unit types this kernel stresses.
    dominant: tuple[FUType, ...] = ()

    def verify(self, dmem: DataMemory) -> None:
        """Raise AssertionError unless the memory matches the golden values."""
        for label, expected in self.expected_words.items():
            addr = self.program.data_labels[label]
            got = dmem.peek_word(addr)
            assert got == expected & 0xFFFFFFFF, (
                f"{self.name}: word {label}@{addr}: got {got:#x}, "
                f"expected {expected & 0xFFFFFFFF:#x}"
            )
        for label, expected in self.expected_floats.items():
            addr = self.program.data_labels[label]
            got = dmem.peek_float(addr)
            assert got == f32(expected) or math.isclose(
                got, expected, rel_tol=1e-5
            ), f"{self.name}: float {label}@{addr}: got {got}, expected {expected}"


def _int_array(values: list[int]) -> str:
    return ", ".join(str(v) for v in values)


def _float_array(values: list[float]) -> str:
    return ", ".join(repr(float(v)) for v in values)


# --------------------------------------------------------------------------
def sum_reduction(n: int = 64) -> Kernel:
    """Integer sum over an array: load/store + integer ALU."""
    data = [(i * 7 + 3) % 101 for i in range(n)]
    src = f"""
    .data
    arr:    .word {_int_array(data)}
    result: .word 0
    .text
    main:   li   x1, 0
            li   x2, {n * 4}
            li   x3, 0
    loop:   lw   x4, arr(x1)
            add  x3, x3, x4
            addi x1, x1, 4
            blt  x1, x2, loop
            sw   x3, result(x0)
            halt
    """
    return Kernel(
        name="sum_reduction",
        description=f"integer sum over {n} words (LSU + INT_ALU)",
        program=assemble(src),
        expected_words={"result": sum(data)},
        dominant=(FUType.LSU, FUType.INT_ALU),
    )


def dot_product(n: int = 48) -> Kernel:
    """Integer dot product: loads + integer multiply/accumulate."""
    a = [(i * 3 + 1) % 17 for i in range(n)]
    b = [(i * 5 + 2) % 13 for i in range(n)]
    src = f"""
    .data
    va:     .word {_int_array(a)}
    vb:     .word {_int_array(b)}
    result: .word 0
    .text
    main:   li   x1, 0
            li   x2, {n * 4}
            li   x3, 0
    loop:   lw   x4, va(x1)
            lw   x5, vb(x1)
            mul  x6, x4, x5
            add  x3, x3, x6
            addi x1, x1, 4
            blt  x1, x2, loop
            sw   x3, result(x0)
            halt
    """
    return Kernel(
        name="dot_product",
        description=f"integer dot product of {n}-vectors (LSU + INT_MDU)",
        program=assemble(src),
        expected_words={"result": sum(x * y for x, y in zip(a, b))},
        dominant=(FUType.LSU, FUType.INT_MDU),
    )


def saxpy(n: int = 40, a: float = 2.5) -> Kernel:
    """Single-precision y = a*x + y (FP multiply + add + memory)."""
    xs = [f32(0.5 * i - 3.0) for i in range(n)]
    ys = [f32(0.25 * i + 1.0) for i in range(n)]
    expected_last = f32(f32(a) * xs[-1] + ys[-1])
    src = f"""
    .data
    scale:  .float {a!r}
    vx:     .float {_float_array(xs)}
    vy:     .float {_float_array(ys)}
    .text
    main:   flw  f1, scale(x0)
            li   x1, 0
            li   x2, {n * 4}
    loop:   flw  f2, vx(x1)
            flw  f3, vy(x1)
            fmul f4, f1, f2
            fadd f5, f4, f3
            fsw  f5, vy(x1)
            addi x1, x1, 4
            blt  x1, x2, loop
            halt
    """
    kernel = Kernel(
        name="saxpy",
        description=f"float32 y = {a}*x + y over {n} elements (FP units + LSU)",
        program=assemble(src),
        dominant=(FUType.FP_ALU, FUType.FP_MDU, FUType.LSU),
    )
    # the last element of vy is a labelled offset check via expected_floats
    # on the vy label itself (first element) and a synthetic label check:
    kernel.expected_floats["vy"] = f32(f32(a) * xs[0] + ys[0])
    kernel._expected_last = expected_last  # type: ignore[attr-defined]
    return kernel


def fir_filter(n: int = 32, taps: list[float] | None = None) -> Kernel:
    """4-tap FIR filter over a float signal (FP-heavy with reuse)."""
    if taps is None:
        taps = [0.25, 0.5, 0.125, 0.0625]
    if len(taps) != 4:
        raise WorkloadError("fir_filter ships with exactly 4 taps")
    signal = [f32(math.sin(0.3 * i)) for i in range(n + 4)]
    # golden model mirrors the kernel's association: (h0*s0 + h1*s1) +
    # (h2*s2 + h3*s3), each operation rounded to float32
    out = []
    for i in range(n):
        p = [f32(f32(taps[j]) * signal[i + j]) for j in range(4)]
        out.append(f32(f32(p[0] + p[1]) + f32(p[2] + p[3])))
    src = f"""
    .data
    taps:   .float {_float_array(taps)}
    sig:    .float {_float_array(signal)}
    out:    .space {n * 4}
    .text
    main:   flw  f10, taps+0(x0)
            flw  f11, taps+4(x0)
            flw  f12, taps+8(x0)
            flw  f13, taps+12(x0)
            li   x1, 0
            li   x2, {n * 4}
    loop:   flw  f2, sig+0(x1)
            flw  f3, sig+4(x1)
            fmul f4, f10, f2
            fmul f5, f11, f3
            fadd f6, f4, f5
            flw  f2, sig+8(x1)
            flw  f3, sig+12(x1)
            fmul f4, f12, f2
            fmul f5, f13, f3
            fadd f7, f4, f5
            fadd f8, f6, f7
            fsw  f8, out(x1)
            addi x1, x1, 4
            blt  x1, x2, loop
            halt
    """
    kernel = Kernel(
        name="fir_filter",
        description=f"4-tap float32 FIR over {n} samples (FP_MDU + FP_ALU)",
        program=assemble(src),
        dominant=(FUType.FP_MDU, FUType.FP_ALU),
    )
    kernel.expected_floats["out"] = out[0]
    kernel._expected_out = out  # type: ignore[attr-defined]
    return kernel


def matmul(n: int = 6) -> Kernel:
    """Dense integer n x n matrix multiply (INT_MDU + LSU heavy)."""
    a = [[(i * n + j + 1) % 9 for j in range(n)] for i in range(n)]
    b = [[(i + 2 * j + 1) % 7 for j in range(n)] for i in range(n)]
    c = [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    flat_a = [v for row in a for v in row]
    flat_b = [v for row in b for v in row]
    src = f"""
    .data
    ma:     .word {_int_array(flat_a)}
    mb:     .word {_int_array(flat_b)}
    mc:     .space {n * n * 4}
    .text
    main:   li   x10, {n}
            li   x1, 0          # i
    iloop:  li   x2, 0          # j
    jloop:  li   x3, 0          # k
            li   x4, 0          # acc
    kloop:  mul  x5, x1, x10
            add  x5, x5, x3
            slli x5, x5, 2
            lw   x6, ma(x5)     # a[i][k]
            mul  x5, x3, x10
            add  x5, x5, x2
            slli x5, x5, 2
            lw   x7, mb(x5)     # b[k][j]
            mul  x8, x6, x7
            add  x4, x4, x8
            addi x3, x3, 1
            blt  x3, x10, kloop
            mul  x5, x1, x10
            add  x5, x5, x2
            slli x5, x5, 2
            sw   x4, mc(x5)     # c[i][j]
            addi x2, x2, 1
            blt  x2, x10, jloop
            addi x1, x1, 1
            blt  x1, x10, iloop
            halt
    """
    kernel = Kernel(
        name="matmul",
        description=f"integer {n}x{n} matrix multiply (INT_MDU + LSU)",
        program=assemble(src),
        dominant=(FUType.INT_MDU, FUType.LSU),
    )
    kernel.expected_words["mc"] = c[0][0]
    kernel._expected_matrix = c  # type: ignore[attr-defined]
    return kernel


def memcpy(n: int = 96) -> Kernel:
    """Word copy loop: pure load/store traffic."""
    data = [(i * 2654435761) & 0xFFFFFFFF for i in range(n)]
    src = f"""
    .data
    src:    .word {_int_array([v if v < 2**31 else v - 2**32 for v in data])}
    dst:    .space {n * 4}
    .text
    main:   li   x1, 0
            li   x2, {n * 4}
    loop:   lw   x3, src(x1)
            sw   x3, dst(x1)
            addi x1, x1, 4
            blt  x1, x2, loop
            halt
    """
    kernel = Kernel(
        name="memcpy",
        description=f"word copy of {n} words (pure LSU)",
        program=assemble(src),
        dominant=(FUType.LSU,),
    )
    kernel.expected_words["dst"] = data[0]
    kernel._expected_data = data  # type: ignore[attr-defined]
    return kernel


def checksum(iterations: int = 200, seed: int = 0x1234) -> Kernel:
    """xorshift32 hashing loop: pure integer ALU (shifts + xors)."""
    x = seed & 0xFFFFFFFF
    for _ in range(iterations):
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
    src = f"""
    .data
    result: .word 0
    .text
    main:   li   x1, {seed}
            li   x2, {iterations}
    loop:   slli x3, x1, 13
            xor  x1, x1, x3
            srli x3, x1, 17
            xor  x1, x1, x3
            slli x3, x1, 5
            xor  x1, x1, x3
            addi x2, x2, -1
            bne  x2, x0, loop
            sw   x1, result(x0)
            halt
    """
    return Kernel(
        name="checksum",
        description=f"xorshift32 x{iterations} (pure INT_ALU)",
        program=assemble(src),
        expected_words={"result": x},
        dominant=(FUType.INT_ALU,),
    )


def newton_sqrt(value: float = 2.0, iterations: int = 12) -> Kernel:
    """Newton iteration for sqrt(value): FP-divide heavy."""
    half = f32(0.5)
    v = f32(value)
    x = f32(value)
    for _ in range(iterations):
        x = f32(half * f32(x + f32(v / x)))
    src = f"""
    .data
    value:  .float {value!r}
    half:   .float 0.5
    result: .float 0.0
    .text
    main:   flw  f1, value(x0)
            flw  f2, half(x0)
            fmov f3, f1
            li   x1, {iterations}
    loop:   fdiv f4, f1, f3
            fadd f5, f3, f4
            fmul f3, f2, f5
            addi x1, x1, -1
            bne  x1, x0, loop
            fsw  f3, result(x0)
            halt
    """
    return Kernel(
        name="newton_sqrt",
        description=f"Newton sqrt({value}) x{iterations} (FP_MDU divides)",
        program=assemble(src),
        expected_floats={"result": x},
        dominant=(FUType.FP_MDU,),
    )


# --------------------------------------------------------------------------
def all_kernels() -> list[Kernel]:
    """One instance of every kernel at its default size."""
    return [
        sum_reduction(),
        dot_product(),
        saxpy(),
        fir_filter(),
        matmul(),
        memcpy(),
        checksum(),
        newton_sqrt(),
    ]


def kernel_factories() -> dict[str, Callable[..., Kernel]]:
    """Every kernel factory by name: the table :func:`kernel_by_name`
    reads and ``repro kernels`` lists.  :func:`all_kernels` builds only
    the first eight."""
    from repro.workloads import kernels_extra, kernels_numeric

    return {
        "sum_reduction": sum_reduction,
        "dot_product": dot_product,
        "saxpy": saxpy,
        "fir_filter": fir_filter,
        "matmul": matmul,
        "memcpy": memcpy,
        "checksum": checksum,
        "newton_sqrt": newton_sqrt,
        "bubble_sort": kernels_extra.bubble_sort,
        "histogram": kernels_extra.histogram,
        "string_length": kernels_extra.string_length,
        "fibonacci": kernels_extra.fibonacci,
        "mandelbrot_point": kernels_extra.mandelbrot_point,
        "vector_max": kernels_extra.vector_max,
        "gcd": kernels_numeric.gcd,
        "popcount_soft": kernels_numeric.popcount_soft,
        "binary_search": kernels_numeric.binary_search,
        "transpose": kernels_numeric.transpose,
        "horner": kernels_numeric.horner,
    }


def kernel_by_name(name: str, **kwargs) -> Kernel:
    """The kernel ``name`` names, built with ``kwargs``."""
    factory = kernel_factories().get(name)
    if factory is None:
        raise WorkloadError(f"unknown kernel {name!r}")
    return factory(**kwargs)
