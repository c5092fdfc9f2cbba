"""Processor configurations and the Table 1 steering basis.

A :class:`Configuration` is a multiset of functional-unit counts.  The
architecture provides three *predefined steering configurations* that each
fill the eight reconfigurable slots exactly, plus the fixed units (one of
each type).  The counts are the DESIGN.md reconstruction of Table 1 (the
OCR of the paper drops the numerals): an integer-, a memory- and a
floating-point-oriented basis designed to be roughly orthogonal, as §5 of
the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.isa.futypes import FU_TYPES, FUType

__all__ = [
    "Configuration",
    "NUM_RFU_SLOTS",
    "FFU_COUNTS",
    "CONFIG_INTEGER",
    "CONFIG_MEMORY",
    "CONFIG_FLOATING",
    "PREDEFINED_CONFIGS",
    "steering_table",
]

#: Number of reconfigurable slots in the fabric (the paper's eight).
NUM_RFU_SLOTS = 8


@dataclass(frozen=True)
class Configuration:
    """Unit counts of one processor configuration (RFU portion only).

    ``counts`` maps each :class:`FUType` to how many units of that type the
    configuration provides in the reconfigurable fabric; types absent from
    the mapping provide zero.
    """

    name: str
    counts: dict[FUType, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for t, n in self.counts.items():
            if not isinstance(t, FUType):
                raise ConfigurationError(f"{self.name}: bad unit type {t!r}")
            if n < 0:
                raise ConfigurationError(f"{self.name}: negative count for {t.name}")

    def count(self, fu_type: FUType) -> int:
        return self.counts.get(fu_type, 0)

    # repro: allow[HOT001] -- measured on at most 6.6% of cycles (demand,
    # window 11, checksum): each adopted synthesis validates one
    # configuration
    @property
    def slot_usage(self) -> int:
        """Total reconfigurable slots this configuration occupies."""
        return sum(t.slot_cost * n for t, n in self.counts.items())

    def validate(self, n_slots: int = NUM_RFU_SLOTS) -> "Configuration":
        """Raise :class:`ConfigurationError` if the slot budget is exceeded."""
        if self.slot_usage > n_slots:
            raise ConfigurationError(
                f"{self.name}: needs {self.slot_usage} slots, only {n_slots} available"
            )
        return self

    def as_vector(self) -> tuple[int, ...]:
        """Counts as a tuple in canonical :data:`FU_TYPES` order."""
        return tuple(self.count(t) for t in FU_TYPES)

    def units(self, ffu_counts: dict[FUType, int] | None = None) -> tuple[int, ...]:
        """Per-type unit counts, in :data:`FU_TYPES` order, of a processor
        with this configuration loaded beside the fixed bank ``ffu_counts``
        (default :data:`FFU_COUNTS`)."""
        ffus = FFU_COUNTS if ffu_counts is None else ffu_counts
        return tuple(self.count(t) + ffus.get(t, 0) for t in FU_TYPES)

    def __str__(self) -> str:
        inner = ", ".join(
            f"{t.short_name}x{n}" for t, n in self.counts.items() if n
        )
        return f"{self.name}({inner})"


#: Fixed functional units: one of each type, always present (Table 1).
FFU_COUNTS: dict[FUType, int] = {t: 1 for t in FU_TYPES}

# The three predefined steering configurations (Table 1 reconstruction).
# Each fills the 8 slots exactly: see DESIGN.md.
CONFIG_INTEGER = Configuration(
    "integer", {FUType.INT_ALU: 4, FUType.INT_MDU: 2}
).validate()
CONFIG_MEMORY = Configuration(
    "memory", {FUType.INT_ALU: 2, FUType.INT_MDU: 1, FUType.LSU: 4}
).validate()
CONFIG_FLOATING = Configuration(
    "floating",
    {FUType.INT_ALU: 1, FUType.LSU: 1, FUType.FP_ALU: 1, FUType.FP_MDU: 1},
).validate()

#: Steering configurations 1-3; index 0 is reserved for "current".
PREDEFINED_CONFIGS: tuple[Configuration, ...] = (
    CONFIG_INTEGER,
    CONFIG_MEMORY,
    CONFIG_FLOATING,
)


def steering_table(configs: tuple[Configuration, ...] = PREDEFINED_CONFIGS) -> str:
    """Render Table 1: units per configuration, fixed and reconfigurable."""
    header = ["Configuration".ljust(20)] + [t.short_name.rjust(6) for t in FU_TYPES]
    header.append("  slots")
    lines = ["".join(header)]
    ffu_row = ["FFUs".ljust(20)] + [
        str(FFU_COUNTS.get(t, 0)).rjust(6) for t in FU_TYPES
    ]
    lines.append("".join(ffu_row) + "      -")
    for i, cfg in enumerate(configs, start=1):
        row = [f"Config {i} ({cfg.name})".ljust(20)]
        row += [str(cfg.count(t)).rjust(6) for t in FU_TYPES]
        row.append(str(cfg.slot_usage).rjust(7))
        lines.append("".join(row))
    return "\n".join(lines)
