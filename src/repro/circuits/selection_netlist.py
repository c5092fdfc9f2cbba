"""The complete selection core (Fig. 2 stages 3-4) as one gate netlist.

Builds the four configuration-error-metric generators — three with
hard-wired shifts for the predefined configurations, one with the
Fig. 3(c) live shift control for the current configuration — feeding the
minimal-error selector with the ``error ‖ distance`` tie-break key, and
returns the two-bit configuration select.

Verified gate-for-gate against the functional
:class:`repro.steering.selection.ConfigurationSelectionUnit` (property
tests) and used by the E-COST section of ``repro report`` to report
*measured* rather than estimated gate counts.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuits.netlist import (
    Netlist,
    build_cem_generator,
    build_minimum_selector,
    build_popcount,
    build_ripple_adder,
)
from repro.circuits.shifters import SUM_WIDTH, hardwired_shifts
from repro.errors import CircuitError
from repro.fabric.configuration import FFU_COUNTS, PREDEFINED_CONFIGS, Configuration
from repro.isa.futypes import FU_TYPES, NUM_FU_TYPES

__all__ = ["build_selection_core", "build_requirement_encoders", "SelectionCore"]

_DISTANCE_WIDTH = 6
_COUNT_WIDTH = 3


def build_requirement_encoders(
    nl: Netlist, n_entries: int = 7
) -> list[list[int]]:
    """Stage 2: per-type population counters over the queue's one-hot
    unit-decoder outputs.

    Declares one ``entry<i>`` input bus (5 bits, one-hot) per queue slot
    and returns the five 3-bit required-count buses.
    """
    entries = [nl.input_bus(f"entry{i}", NUM_FU_TYPES) for i in range(n_entries)]
    required = []
    for t in FU_TYPES:
        column = [entry[t.bit_index] for entry in entries]
        required.append(build_popcount(nl, column, _COUNT_WIDTH))
    return required


def _current_cem(
    nl: Netlist,
    required: list[list[int]],
    current_counts: list[list[int]],
) -> list[int]:
    """The current-configuration CEM: live Fig. 3(c) shift control.

    For each type, the shift amount comes from the upper two bits of the
    3-bit configured-unit count: count[2] selects >>2, else count[1]
    selects >>1, else >>0 — implemented as a two-rank mux network.
    """
    total = [nl.zero] * SUM_WIDTH
    for bus, count in zip(required, current_counts):
        high, mid = count[2], count[1]
        # candidate shifted values of the 3-bit required count
        by0 = bus
        by1 = [bus[1], bus[2], nl.zero]
        by2 = [bus[2], nl.zero, nl.zero]
        # select: high ? by2 : (mid ? by1 : by0)
        inner = [nl.mux(mid, a, b) for a, b in zip(by0, by1)]
        term = [nl.mux(high, a, b) for a, b in zip(inner, by2)]
        padded = term + [nl.zero] * (SUM_WIDTH - len(term))
        total, _ = build_ripple_adder(nl, total, padded)
    return total


def _distance_constant(nl: Netlist, value: int) -> list[int]:
    return [
        (nl.one if (value >> i) & 1 else nl.zero) for i in range(_DISTANCE_WIDTH)
    ]


def _abs_diff_distance(
    nl: Netlist,
    current_counts: list[list[int]],
    config: Configuration,
) -> list[int]:
    """L1 distance between the live counts and a predefined candidate's
    counts — the tie-break input, computed combinationally."""
    from repro.circuits.netlist import build_less_than

    total = [nl.zero] * _DISTANCE_WIDTH
    for t, count in zip(FU_TYPES, current_counts):
        target = config.count(t) + FFU_COUNTS.get(t, 0)
        t_bits = [
            (nl.one if (target >> i) & 1 else nl.zero) for i in range(_COUNT_WIDTH)
        ]
        lt = build_less_than(nl, count, t_bits)  # count < target ?
        # |count - target| via two subtractions and a mux (two's complement)
        inv_count = [nl.not_(b) for b in count]
        diff_a, _ = build_ripple_adder(nl, t_bits, inv_count, cin=nl.one)
        inv_t = [nl.not_(b) for b in t_bits]
        diff_b, _ = build_ripple_adder(nl, count, inv_t, cin=nl.one)
        # mux(sel, x, y) = sel ? y : x — pick (target - count) when lt
        absdiff = [
            nl.mux(lt, db_bit, da_bit)
            for db_bit, da_bit in zip(diff_b, diff_a)
        ]
        padded = absdiff + [nl.zero] * (_DISTANCE_WIDTH - len(absdiff))
        total, _ = build_ripple_adder(nl, total, padded)
    return total


class SelectionCore:
    """A built selection-core netlist plus its evaluation helper."""

    def __init__(self, configs: Sequence[Configuration] = PREDEFINED_CONFIGS) -> None:
        if len(configs) != 3:
            raise CircuitError("the two-bit select encodes exactly 4 candidates")
        self.configs = tuple(configs)
        self.netlist = build_selection_core(self.configs)

    def select(
        self, required: Sequence[int], current_counts: Sequence[int]
    ) -> dict[str, int]:
        """Evaluate the netlist; returns the ``select`` index and the four
        ``error<k>`` buses."""
        inputs = {f"req{i}": v for i, v in enumerate(required)}
        inputs |= {f"cur{i}": min(7, v) for i, v in enumerate(current_counts)}
        return self.netlist.evaluate(**inputs)


def build_selection_core(
    configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
) -> Netlist:
    """Stages 3-4 of Fig. 2 as gates.

    Inputs: ``req0..req4`` (3-bit required counts) and ``cur0..cur4``
    (3-bit live configured counts).  Outputs: ``error0..error3`` (6-bit
    CEMs, current first) and ``select`` (2 bits).
    """
    nl = Netlist()
    required = [nl.input_bus(f"req{i}", _COUNT_WIDTH) for i in range(NUM_FU_TYPES)]
    current = [nl.input_bus(f"cur{i}", _COUNT_WIDTH) for i in range(NUM_FU_TYPES)]

    errors = [_current_cem(nl, required, current)]
    for cfg in configs:
        errors.append(
            build_cem_generator(nl, required, list(hardwired_shifts(cfg)))
        )

    distances = [_distance_constant(nl, 0)] + [
        _abs_diff_distance(nl, current, cfg) for cfg in configs
    ]
    keys = [d + e for e, d in zip(errors, distances)]  # error ‖ distance, LSB-first
    select = build_minimum_selector(nl, keys)

    for k, error in enumerate(errors):
        nl.output_bus(f"error{k}", error)
    nl.output_bus("select", select)
    return nl
