"""Third kernel batch: classic numeric / bit-twiddling routines.

Rounds out the workload suite with algorithms whose *control structure*
differs from the array loops of the core suite: Euclid's GCD (data-
dependent loop count on the divider), software popcount (long ALU chains),
binary search (unpredictable branches over memory), matrix transpose
(strided stores) and a polynomial evaluation via Horner's rule (serial
FP multiply-add recurrence).
"""

from __future__ import annotations

from repro.isa.assembler import assemble
from repro.isa.futypes import FUType
from repro.isa.semantics import f32
from repro.workloads.kernels import Kernel, _float_array, _int_array

__all__ = [
    "gcd",
    "popcount_soft",
    "binary_search",
    "transpose",
    "horner",
]


def gcd(a: int = 1071, b: int = 462) -> Kernel:
    """Euclid's algorithm by remainder: div-unit bound, branchy."""
    import math

    src = f"""
    .data
    result: .word 0
    .text
    main:   li   x1, {a}
            li   x2, {b}
    loop:   beq  x2, x0, done
            remu x3, x1, x2
            mv   x1, x2
            mv   x2, x3
            j    loop
    done:   sw   x1, result(x0)
            halt
    """
    return Kernel(
        name="gcd",
        description=f"gcd({a}, {b}) by Euclid's remainder loop (INT_MDU divides)",
        program=assemble(src),
        expected_words={"result": math.gcd(a, b)},
        dominant=(FUType.INT_MDU, FUType.INT_ALU),
    )


def popcount_soft(n: int = 32) -> Kernel:
    """Software popcount over an array (shift/mask ALU chains)."""
    data = [(i * 2654435761) & 0xFFFFFFFF for i in range(n)]
    total = sum(bin(v).count("1") for v in data)
    src = f"""
    .data
    data:   .word {_int_array([v - 2**32 if v >= 2**31 else v for v in data])}
    result: .word 0
    .text
    main:   li   x1, 0
            li   x2, {n * 4}
            li   x3, 0          # total
    loop:   lw   x4, data(x1)
    bits:   beq  x4, x0, next
            addi x5, x4, -1
            and  x4, x4, x5     # clear lowest set bit (Kernighan)
            addi x3, x3, 1
            j    bits
    next:   addi x1, x1, 4
            blt  x1, x2, loop
            sw   x3, result(x0)
            halt
    """
    return Kernel(
        name="popcount_soft",
        description=f"Kernighan popcount over {n} words (serial INT_ALU)",
        program=assemble(src),
        expected_words={"result": total},
        dominant=(FUType.INT_ALU,),
    )


def binary_search(n: int = 64, needle_index: int = 41) -> Kernel:
    """Binary search in a sorted array: unpredictable branches."""
    data = sorted({(i * 37 + 5) % 4096 for i in range(n * 2)})[:n]
    needle = data[needle_index % len(data)]
    expected = data.index(needle)
    src = f"""
    .data
    arr:    .word {_int_array(data)}
    result: .word 0
    .text
    main:   li   x1, 0              # lo
            li   x2, {len(data) - 1}  # hi
            li   x3, {needle}
            li   x9, -1             # result index
    loop:   bgt  x1, x2, done
            add  x4, x1, x2
            srli x4, x4, 1          # mid
            slli x5, x4, 2
            lw   x6, arr(x5)
            beq  x6, x3, found
            blt  x6, x3, golow
            addi x2, x4, -1
            j    loop
    golow:  addi x1, x4, 1
            j    loop
    found:  mv   x9, x4
    done:   sw   x9, result(x0)
            halt
    """
    return Kernel(
        name="binary_search",
        description=f"binary search in {len(data)} sorted words (branchy LSU)",
        program=assemble(src),
        expected_words={"result": expected},
        dominant=(FUType.LSU, FUType.INT_ALU),
    )


def transpose(n: int = 8) -> Kernel:
    """n x n word-matrix transpose: strided loads/stores."""
    a = [[(i * n + j + 1) % 251 for j in range(n)] for i in range(n)]
    src = f"""
    .data
    ma:  .word {_int_array([v for row in a for v in row])}
    mt:  .space {n * n * 4}
    .text
    main:   li   x10, {n}
            li   x1, 0          # i
    iloop:  li   x2, 0          # j
    jloop:  mul  x3, x1, x10
            add  x3, x3, x2
            slli x3, x3, 2
            lw   x4, ma(x3)
            mul  x5, x2, x10
            add  x5, x5, x1
            slli x5, x5, 2
            sw   x4, mt(x5)
            addi x2, x2, 1
            blt  x2, x10, jloop
            addi x1, x1, 1
            blt  x1, x10, iloop
            halt
    """
    kernel = Kernel(
        name="transpose",
        description=f"{n}x{n} matrix transpose (strided LSU + INT_MDU indexing)",
        program=assemble(src),
        dominant=(FUType.LSU, FUType.INT_MDU),
    )
    kernel.expected_words["mt"] = a[0][0]
    kernel._expected_t = [[a[j][i] for j in range(n)] for i in range(n)]  # type: ignore[attr-defined]
    return kernel


def horner(coeffs: list[float] | None = None, x: float = 1.25) -> Kernel:
    """Polynomial evaluation by Horner's rule: serial FP mul-add chain."""
    if coeffs is None:
        coeffs = [1.0, -0.5, 0.25, -0.125, 0.0625, 2.0, -1.5, 0.75]
    acc = f32(coeffs[0])
    for c in coeffs[1:]:
        acc = f32(f32(acc * f32(x)) + f32(c))
    src = f"""
    .data
    cs:     .float {_float_array(coeffs)}
    xv:     .float {x!r}
    result: .float 0.0
    .text
    main:   flw  f1, xv(x0)
            flw  f2, cs(x0)      # acc = c0
            li   x1, 4
            li   x2, {len(coeffs) * 4}
    loop:   bge  x1, x2, done
            fmul f2, f2, f1
            flw  f3, cs(x1)
            fadd f2, f2, f3
            addi x1, x1, 4
            j    loop
    done:   fsw  f2, result(x0)
            halt
    """
    return Kernel(
        name="horner",
        description=f"degree-{len(coeffs) - 1} Horner evaluation (serial FP chain)",
        program=assemble(src),
        expected_floats={"result": acc},
        dominant=(FUType.FP_MDU, FUType.FP_ALU),
    )
