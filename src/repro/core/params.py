"""Processor parameters (DESIGN.md §4 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

from repro.errors import SimulationError
from repro.isa.futypes import FUType

__all__ = ["ProcessorParams"]


@dataclass(frozen=True)
class ProcessorParams:
    """Everything configurable about a simulated processor instance.

    Frozen, so its :attr:`fingerprint` text is rendered once and kept;
    like any derived state it is neither pickled nor copied.
    """

    #: wake-up array / instruction queue entries (the paper's seven).
    window_size: int = 7
    #: instructions fetched per cycle along the predicted path.
    fetch_width: int = 4
    #: instructions retired per cycle.
    retire_width: int = 4
    #: reconfigurable slots in the fabric (the paper's eight).
    n_slots: int = 8
    #: configuration-bus cycles to reload one slot.
    reconfig_latency: int = 16
    #: 2-bit predictor table entries (power of two).
    predictor_entries: int = 256
    #: branch-target-buffer entries.
    btb_entries: int = 64
    #: enable the trace cache (fetch past predicted-taken branches).
    use_trace_cache: bool = True
    trace_cache_capacity: int = 64
    #: data memory size in bytes.
    dmem_size: int = 1 << 20
    #: decode buffer capacity.
    decode_capacity: int = 16
    #: steering evaluates the hardware (shift) metric unless exact is set.
    use_exact_metric: bool = False
    #: [9] extension: pipelined select-free scheduling (wake-up sees
    #: 1-cycle-stale availability; collision losers replay via reschedule).
    pipelined_scheduling: bool = False
    #: partial-reconfiguration flow: "module" (full region rewrite) or
    #: "difference" (only differing frames; cheaper for related units) [8].
    reconfig_mode: str = "module"
    #: fixed functional units per type; None = the paper's one-of-each.
    #: Passing ``{}`` builds the FFU-less pathological fabric §3.2 warns
    #: about (instructions whose unit type is never configured can starve).
    ffu_counts: dict[FUType, int] | None = None

    def __post_init__(self) -> None:
        for name in (
            "window_size",
            "fetch_width",
            "retire_width",
            "n_slots",
            "reconfig_latency",
            "dmem_size",
            "decode_capacity",
        ):
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be positive")
        if self.reconfig_mode not in ("module", "difference"):
            raise SimulationError(
                f"reconfig_mode must be 'module' or 'difference', got {self.reconfig_mode!r}"
            )

    def canonical(self) -> tuple:
        """The parameters reduced to primitives with a deterministic repr:
        their part of a job's content fingerprint
        (:func:`repro.evaluation.batch.job_key`).  Every field is a
        primitive but :attr:`ffu_counts`, which reduces as the fingerprint
        reduces any dict, to its ``(("futype", name), count)`` pairs in
        sorted order."""
        def reduce(value):
            if isinstance(value, dict):
                pairs = ((("futype", t.name), n) for t, n in value.items())
                return ("dict", tuple(sorted(pairs, key=repr)))
            return value

        return ("params",) + tuple(
            (f.name, reduce(getattr(self, f.name))) for f in fields(self)
        )

    @cached_property
    def fingerprint(self) -> str:
        """``repr`` of :meth:`canonical`, rendered once: a sweep keys one
        parameter point under every program and policy."""
        return repr(self.canonical())

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("fingerprint", None)
        return state
