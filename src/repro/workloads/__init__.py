"""Workloads: the programs the evaluation runs.

The paper reports no benchmark suite, so the evaluation inputs are built
here (DESIGN.md substitution rule):

* :mod:`repro.workloads.kernels` — real kernels written in the repro ISA
  (reductions, dot products, SAXPY, matrix multiply, memcpy, hashing,
  Newton iteration ...), each with golden expected results so every
  simulator run is also a functional correctness check;
* :mod:`repro.workloads.synthetic` — seeded random programs with a target
  functional-unit mix and dependency density;
* :mod:`repro.workloads.phases` — phase-changing workloads (integer ->
  memory -> floating-point ...) that exercise steering adaptation.

:func:`resolve_program` names any of them by one target string.
"""

from repro.errors import WorkloadError
from repro.isa.program import Program

from repro.workloads.kernels import (
    Kernel,
    all_kernels,
    checksum,
    dot_product,
    fir_filter,
    kernel_by_name,
    kernel_factories,
    matmul,
    memcpy,
    newton_sqrt,
    saxpy,
    sum_reduction,
)
from repro.workloads.kernels_extra import (
    bubble_sort,
    extended_kernels,
    fibonacci,
    histogram,
    mandelbrot_point,
    string_length,
    vector_max,
)
from repro.workloads.kernels_numeric import (
    binary_search,
    gcd,
    horner,
    popcount_soft,
    transpose,
)
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import (
    BALANCED_MIX,
    FP_MIX,
    INT_MIX,
    MEM_MIX,
    MixSpec,
    synthetic_program,
)

__all__ = [
    "Kernel",
    "all_kernels",
    "kernel_by_name",
    "kernel_factories",
    "sum_reduction",
    "dot_product",
    "saxpy",
    "fir_filter",
    "matmul",
    "memcpy",
    "checksum",
    "newton_sqrt",
    "bubble_sort",
    "histogram",
    "string_length",
    "fibonacci",
    "mandelbrot_point",
    "vector_max",
    "extended_kernels",
    "gcd",
    "popcount_soft",
    "binary_search",
    "transpose",
    "horner",
    "MixSpec",
    "synthetic_program",
    "phased_program",
    "resolve_program",
]

_MIXES = {"int": INT_MIX, "mem": MEM_MIX, "fp": FP_MIX, "balanced": BALANCED_MIX}


def resolve_program(target: str) -> Program:
    """The program a target names; never touches the filesystem.

    A target is a kernel name (``checksum``), a synthetic mix
    (``mix:<int|mem|fp|balanced>[:iterations[:seed]]``) or the phased
    workload (``phased[:seed]``: int -> mem -> fp phases).  Anything else
    raises :class:`~repro.errors.WorkloadError`.
    """
    name, *fields = target.split(":")
    if name == "mix":
        mix = _MIXES.get(fields[0] if fields else "")
        if mix is None:
            raise WorkloadError(
                f"unknown mix in {target!r}; choose from {sorted(_MIXES)}"
            )
        iterations, seed = _integers(target, fields[1:], (50, 0))
        return synthetic_program(mix, iterations=iterations, seed=seed)
    if name == "phased":
        (seed,) = _integers(target, fields, (0,))
        return phased_program(
            [(INT_MIX, 50), (MEM_MIX, 50), (FP_MIX, 50)], seed=seed
        )
    return kernel_by_name(target).program


def _integers(target: str, fields: list[str], defaults: tuple[int, ...]) -> list[int]:
    """``fields`` as integers, padded with the trailing ``defaults``."""
    if len(fields) > len(defaults):
        raise WorkloadError(f"too many fields in {target!r}")
    try:
        return [int(f) for f in fields] + list(defaults[len(fields):])
    except ValueError as exc:
        raise WorkloadError(f"bad target {target!r}: {exc}") from None
