"""The Fig. 2 selection unit, all four stages, as one gate netlist.

1. **unit decoders** — one per queue entry, from the 7-bit opcode to a
   one-hot 5-bit unit type, a sum of products generated from the ISA's
   opcode table;
2. **requirement encoders** — one per type, a 4-bit popcount of that
   type's decoder outputs saturated to the 3-bit required count;
3. **CEM generators** (Fig. 3) — the current configuration's with the
   live Fig. 3(c) shift control, the three predefined ones with hard-wired
   shifts, each summing its five terms in a 6-bit adder;
4. **minimal-error select** — the first minimum of ``error ‖ distance``
   over the four candidates, the distance being the L1 count distance from
   the live configured counts.

This is the only hardware model of the unit: the simulator's lookup
tables are truth tables of these builders, and the E-COST figures of
``repro report`` are the gate counts and depths of
:func:`build_selection_unit`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuits.netlist import (
    Netlist,
    build_less_than,
    build_minimum_selector,
    build_popcount,
    build_ripple_adder,
)
from repro.errors import CircuitError
from repro.fabric.configuration import FFU_COUNTS, PREDEFINED_CONFIGS, Configuration
from repro.isa.futypes import FU_TYPES, NUM_FU_TYPES
from repro.isa.opcodes import Opcode, spec_of

__all__ = [
    "COUNT_WIDTH",
    "SUM_WIDTH",
    "DISTANCE_WIDTH",
    "OPCODE_WIDTH",
    "wired_shift",
    "hardwired_shifts",
    "build_unit_decoder",
    "build_requirement_encoder",
    "build_cem_term",
    "build_accumulator",
    "build_cem_generator",
    "build_selection_core",
    "build_selection_unit",
]

#: bit width of a per-type required count.
COUNT_WIDTH = 3
#: bit width of a summed error metric (five 3-bit terms <= 35).
SUM_WIDTH = 6
#: bit width of the reconfiguration-distance field of the tie-break key.
DISTANCE_WIDTH = 6
#: bit width of an instruction's opcode field.
OPCODE_WIDTH = 7


def wired_shift(count: int) -> int:
    """The shift the Fig. 3(c) control selects for a constant 3-bit unit
    count: bit 2 selects ``>> 2``, else bit 1 selects ``>> 1``."""
    return 2 if count & 4 else 1 if count & 2 else 0


def hardwired_shifts(
    config: Configuration, ffu_counts: dict | None = None
) -> tuple[int, ...]:
    """Shift amounts wired into a predefined configuration's CEM generator:
    the Fig. 3(c) control with its count inputs tied to the candidate's
    unit count of each type (its units plus the fixed ones, at most 7)."""
    ffus = FFU_COUNTS if ffu_counts is None else ffu_counts
    return tuple(
        wired_shift(min(config.count(t) + ffus.get(t, 0), 7)) for t in FU_TYPES
    )


def _tree(nl: Netlist, gate, nets: list[int]) -> int:
    """Reduce ``nets`` with a balanced tree of 2-input ``gate``s."""
    if not nets:
        return nl.zero
    while len(nets) > 1:
        paired = [gate(a, b) for a, b in zip(nets[::2], nets[1::2])]
        nets = paired + nets[2 * len(paired):]
    return nets[0]


def build_unit_decoder(nl: Netlist, opcode: list[int]) -> list[int]:
    """Stage 1: one unit decoder, from a 7-bit opcode to the one-hot 5-bit
    unit type (bit ``t.bit_index`` for type ``t``).

    Each type's bit ORs the minterms of the opcodes :func:`spec_of` assigns
    to it; an opcode number no instruction uses (such as 0, which marks an
    empty queue entry) decodes to zero.
    """
    inverted = [nl.not_(bit) for bit in opcode]
    minterms: dict = {t: [] for t in FU_TYPES}
    for op in Opcode:
        literals = [
            opcode[i] if (op >> i) & 1 else inverted[i] for i in range(OPCODE_WIDTH)
        ]
        minterms[spec_of(op).fu_type].append(_tree(nl, nl.and_, literals))
    onehot = [nl.zero] * NUM_FU_TYPES
    for t in FU_TYPES:
        onehot[t.bit_index] = _tree(nl, nl.or_, minterms[t])
    return onehot


def build_requirement_encoder(nl: Netlist, column: list[int]) -> list[int]:
    """Stage 2: one requirement encoder over one type's decoder outputs.

    A 4-bit popcount (so 16 entries of one type wrap to 0, like the
    packed per-type count the simulator keeps) saturated to the 3-bit
    required count.
    """
    total = build_popcount(nl, column, COUNT_WIDTH + 1)
    return [nl.or_(bit, total[COUNT_WIDTH]) for bit in total[:COUNT_WIDTH]]


def build_cem_term(nl: Netlist, required: list[int], count: list[int]) -> list[int]:
    """One Fig. 3(c) term: a 3-bit required count shifted right by the
    live control of the 3-bit configured count — ``count[2]`` selects
    ``>> 2``, else ``count[1]`` selects ``>> 1`` — as two mux ranks."""
    by1 = [required[1], required[2], nl.zero]
    by2 = [required[2], nl.zero, nl.zero]
    inner = [nl.mux(count[1], a, b) for a, b in zip(required, by1)]
    return [nl.mux(count[2], a, b) for a, b in zip(inner, by2)]


def build_accumulator(nl: Netlist, total: list[int], term: list[int]) -> list[int]:
    """One step of a CEM generator's adder: ``total + term``, the term
    zero-extended to the total's width and the carry out dropped."""
    padded = term + [nl.zero] * (len(total) - len(term))
    out, _ = build_ripple_adder(nl, total, padded)
    return out


def build_cem_generator(
    nl: Netlist, required: list[list[int]], shifts: list[int]
) -> list[int]:
    """One Fig. 3(b) CEM generator with hard-wired shift amounts.

    ``required`` holds the five 3-bit required-count buses; ``shifts`` the
    per-type constant shift (0, 1 or 2), a wiring choice that costs no
    gates.  Returns the ``SUM_WIDTH``-bit error bus.
    """
    if len(required) != len(shifts):
        raise CircuitError("one shift per required-count bus")
    total = [nl.zero] * SUM_WIDTH
    for bus, shift in zip(required, shifts):
        if shift < 0 or shift >= len(bus):
            raise CircuitError(f"hard-wired shift {shift} out of range")
        total = build_accumulator(nl, total, bus[shift:] + [nl.zero] * shift)
    return total


def _current_cem(
    nl: Netlist, required: list[list[int]], counts: list[list[int]]
) -> list[int]:
    """The current configuration's CEM generator: live shift control."""
    total = [nl.zero] * SUM_WIDTH
    for bus, count in zip(required, counts):
        total = build_accumulator(nl, total, build_cem_term(nl, bus, count))
    return total


def _constant(nl: Netlist, value: int, width: int) -> list[int]:
    return [(nl.one if (value >> i) & 1 else nl.zero) for i in range(width)]


def _distance(
    nl: Netlist, counts: list[list[int]], config: Configuration
) -> list[int]:
    """L1 distance between the live counts and a predefined candidate's
    counts — the tie-break input, computed combinationally."""
    total = [nl.zero] * DISTANCE_WIDTH
    for t, count in zip(FU_TYPES, counts):
        target = _constant(nl, config.count(t) + FFU_COUNTS.get(t, 0), COUNT_WIDTH)
        lt = build_less_than(nl, count, target)  # count < target ?
        # |count - target| via two subtractions and a mux (two's complement)
        diff_a, _ = build_ripple_adder(
            nl, target, [nl.not_(b) for b in count], cin=nl.one
        )
        diff_b, _ = build_ripple_adder(
            nl, count, [nl.not_(b) for b in target], cin=nl.one
        )
        absdiff = [nl.mux(lt, db, da) for db, da in zip(diff_b, diff_a)]
        total = build_accumulator(nl, total, absdiff)
    return total


def _stages_3_4(
    nl: Netlist,
    required: list[list[int]],
    counts: list[list[int]],
    configs: Sequence[Configuration],
) -> None:
    if len(configs) != 3:
        raise CircuitError("the two-bit select encodes exactly 4 candidates")
    errors = [_current_cem(nl, required, counts)]
    errors += [
        build_cem_generator(nl, required, list(hardwired_shifts(cfg)))
        for cfg in configs
    ]
    nl.end_stage("cem_generators", [n for e in errors for n in e])
    distances = [_constant(nl, 0, DISTANCE_WIDTH)]
    distances += [_distance(nl, counts, cfg) for cfg in configs]
    keys = [d + e for e, d in zip(errors, distances)]  # error ‖ distance, LSB-first
    select = build_minimum_selector(nl, keys)
    nl.end_stage("minimal_error_selector", select)
    for k, error in enumerate(errors):
        nl.output_bus(f"error{k}", error)
    nl.output_bus("select", select)


def build_selection_core(
    configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
) -> Netlist:
    """Stages 3-4 of Fig. 2 as gates.

    Inputs: ``req0..req4`` (3-bit required counts) and ``cur0..cur4``
    (3-bit live configured counts).  Outputs: ``error0..error3`` (6-bit
    CEMs, current first) and ``select`` (2 bits).
    """
    nl = Netlist()
    required = [nl.input_bus(f"req{i}", COUNT_WIDTH) for i in range(NUM_FU_TYPES)]
    counts = [nl.input_bus(f"cur{i}", COUNT_WIDTH) for i in range(NUM_FU_TYPES)]
    _stages_3_4(nl, required, counts, configs)
    return nl


def build_selection_unit(
    n_entries: int = 7,
    configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
) -> Netlist:
    """All four stages of Fig. 2 for an ``n_entries``-entry queue.

    Inputs: ``op0..op<n-1>`` (7-bit opcodes, 0 for an empty entry) and
    ``cur0..cur4``.  Outputs: ``req0..req4`` (the stage-2 required
    counts), ``error0..error3`` and ``select``.  ``stages`` holds the
    gate count and output depth of each stage.
    """
    nl = Netlist()
    opcodes = [nl.input_bus(f"op{i}", OPCODE_WIDTH) for i in range(n_entries)]
    counts = [nl.input_bus(f"cur{i}", COUNT_WIDTH) for i in range(NUM_FU_TYPES)]
    onehots = [build_unit_decoder(nl, opcode) for opcode in opcodes]
    nl.end_stage("unit_decoders", [n for onehot in onehots for n in onehot])
    required = [
        build_requirement_encoder(nl, [onehot[i] for onehot in onehots])
        for i in range(NUM_FU_TYPES)
    ]
    nl.end_stage("requirement_encoders", [n for bus in required for n in bus])
    for i, bus in enumerate(required):
        nl.output_bus(f"req{i}", bus)
    _stages_3_4(nl, required, counts, configs)
    return nl
