"""Analytic gate-count and logic-depth estimates for the selection circuits.

The paper claims the configuration manager is a "fast and efficient
micro-architectural solution".  These estimators quantify that claim with
standard textbook costs in 2-input-gate equivalents (GE) and levels of
logic, and back the E-COST claims of `repro report`.

Conventions (typical static-CMOS textbook figures):

* 2-input NAND/NOR/AND/OR/XOR           = 1 GE, 1 level
* 2:1 mux                               = 3 GE, 2 levels
* 1-bit full adder                      = 5 GE, 3 levels (2 for carry)
* D flip-flop (for stored vectors)      = 6 GE (not on the combinational path)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CircuitCost",
    "ripple_adder_cost",
    "barrel_shifter_cost",
    "comparator_cost",
    "popcount_cost",
    "multi_operand_adder_cost",
    "unit_decoder_cost",
    "requirement_encoder_cost",
    "cem_generator_cost",
    "minimum_selector_cost",
    "selection_unit_cost",
]


@dataclass(frozen=True)
class CircuitCost:
    """Gate-equivalent count and critical-path depth of a circuit block."""

    gates: int
    depth: int

    def in_series(self, other: "CircuitCost") -> "CircuitCost":
        """Compose two blocks one after the other (depths add)."""
        return CircuitCost(self.gates + other.gates, self.depth + other.depth)

    def in_parallel(self, other: "CircuitCost") -> "CircuitCost":
        """Compose two blocks side by side (depth is the max)."""
        return CircuitCost(self.gates + other.gates, max(self.depth, other.depth))

    def replicated(self, count: int) -> "CircuitCost":
        """``count`` independent copies operating in parallel."""
        if count < 0:
            raise ValueError(f"replication count must be non-negative, got {count}")
        return CircuitCost(self.gates * count, self.depth if count else 0)


def ripple_adder_cost(width: int) -> CircuitCost:
    """``width``-bit ripple-carry adder: one full adder per bit, carries ripple."""
    return CircuitCost(gates=5 * width, depth=2 * width + 1)


def barrel_shifter_cost(width: int, max_shift: int) -> CircuitCost:
    """Mux-based logarithmic barrel shifter.

    One rank of ``width`` 2:1 muxes per shift-control bit.
    """
    levels = max(1, math.ceil(math.log2(max_shift + 1)))
    return CircuitCost(gates=3 * width * levels, depth=2 * levels)


def comparator_cost(width: int) -> CircuitCost:
    """Unsigned ``a < b`` magnitude comparator (ripple from MSB)."""
    return CircuitCost(gates=3 * width, depth=width + 1)


def popcount_cost(n_inputs: int, out_width: int) -> CircuitCost:
    """Full-adder tree counting ``n_inputs`` single-bit inputs."""
    # A Wallace-style counter for n inputs needs about n - out_width full
    # adders; depth grows with log(n) ranks of 3-level adders.
    adders = max(1, n_inputs - 1)
    depth = 3 * max(1, math.ceil(math.log2(max(2, n_inputs))))
    return CircuitCost(gates=5 * adders, depth=depth)


def multi_operand_adder_cost(n_operands: int, in_width: int, out_width: int) -> CircuitCost:
    """Adder tree summing ``n_operands`` values of ``in_width`` bits."""
    ranks = max(1, math.ceil(math.log2(max(2, n_operands))))
    adders = n_operands - 1
    return CircuitCost(
        gates=adders * ripple_adder_cost(out_width).gates,
        depth=ranks * ripple_adder_cost(out_width).depth,
    )


def unit_decoder_cost(opcode_bits: int, n_types: int) -> CircuitCost:
    """One unit decoder: opcode -> one-hot functional-unit-type vector.

    Modelled as ``n_types`` wide-AND minterm groups over the opcode bits.
    """
    gates = n_types * (opcode_bits - 1)
    depth = math.ceil(math.log2(max(2, opcode_bits)))
    return CircuitCost(gates=gates, depth=depth)


def requirement_encoder_cost(n_entries: int, n_types: int, count_width: int) -> CircuitCost:
    """Per-type population counters over the queue's one-hot outputs."""
    return popcount_cost(n_entries, count_width).replicated(n_types)


def cem_generator_cost(n_types: int, count_width: int, sum_width: int) -> CircuitCost:
    """One configuration-error-metric generator (Fig. 3(b)).

    ``n_types`` barrel shifters (max shift 2) feeding an ``n_types``-operand
    adder, plus the Fig. 3(c) shift-control gates for the current config.
    """
    shifters = barrel_shifter_cost(count_width, 2).replicated(n_types)
    control = CircuitCost(gates=2 * n_types, depth=1)
    tree = multi_operand_adder_cost(n_types, count_width, sum_width)
    return shifters.in_parallel(control).in_series(tree)


def minimum_selector_cost(n_candidates: int, value_width: int) -> CircuitCost:
    """Minimal-error selection: comparator/mux tree over the candidates."""
    comparators = n_candidates - 1
    per_stage = comparator_cost(value_width).in_series(
        CircuitCost(gates=3 * (value_width + 2), depth=2)  # value + index muxes
    )
    depth_stages = math.ceil(math.log2(max(2, n_candidates)))
    return CircuitCost(gates=comparators * per_stage.gates, depth=depth_stages * per_stage.depth)


def selection_unit_cost(
    n_entries: int = 7,
    n_types: int = 5,
    n_configs: int = 4,
    opcode_bits: int = 7,
    count_width: int = 3,
    sum_width: int = 6,
) -> dict[str, CircuitCost]:
    """Cost breakdown of the full four-stage selection unit (Fig. 2).

    Returns per-stage costs plus a ``"total"`` entry composing the stages in
    series (stage outputs feed the next stage).
    """
    decoders = unit_decoder_cost(opcode_bits, n_types).replicated(n_entries)
    encoders = requirement_encoder_cost(n_entries, n_types, count_width)
    cems = cem_generator_cost(n_types, count_width, sum_width).replicated(n_configs)
    selector = minimum_selector_cost(n_configs, sum_width)
    total = decoders.in_series(encoders).in_series(cems).in_series(selector)
    return {
        "unit_decoders": decoders,
        "requirement_encoders": encoders,
        "cem_generators": cems,
        "minimal_error_selector": selector,
        "total": total,
    }
