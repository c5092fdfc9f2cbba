"""Gate-level netlists of the selection circuits.

Where :mod:`repro.circuits.adders` etc. model the hardware *functionally*,
this module builds the same blocks as explicit gate graphs — 2-input
AND/OR/XOR/NOT primitives wired through named nets — that can be evaluated,
counted and depth-analysed.  The netlist builders are verified against the
functional models (property tests), and their true gate counts calibrate
the analytic estimates in :mod:`repro.circuits.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CircuitError

__all__ = [
    "Netlist",
    "build_ripple_adder",
    "build_popcount",
    "build_barrel_shifter",
    "build_less_than",
    "build_minimum_selector",
    "build_cem_generator",
]

_KINDS = {"AND": 2, "OR": 2, "XOR": 2, "NOT": 1}


@dataclass(frozen=True)
class _Gate:
    kind: str
    inputs: tuple[int, ...]
    output: int


@dataclass
class Netlist:
    """A combinational gate graph over single-bit nets.

    Nets are integers.  Net 0 is constant 0 and net 1 constant 1.  Gates
    are appended in topological order (builders only reference existing
    nets), so evaluation is a single forward pass.
    """

    _n_nets: int = 2  # nets 0 and 1 are the constants
    gates: list[_Gate] = field(default_factory=list)
    inputs: dict[str, list[int]] = field(default_factory=dict)
    outputs: dict[str, list[int]] = field(default_factory=dict)
    _depth: dict[int, int] = field(default_factory=lambda: {0: 0, 1: 0})

    # ------------------------------------------------------------- wiring
    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def new_net(self) -> int:
        net = self._n_nets
        self._n_nets += 1
        self._depth.setdefault(net, 0)
        return net

    def input_bus(self, name: str, width: int) -> list[int]:
        """Declare a named input bus (LSB first)."""
        if name in self.inputs:
            raise CircuitError(f"input bus {name!r} already declared")
        bus = [self.new_net() for _ in range(width)]
        self.inputs[name] = bus
        return bus

    def output_bus(self, name: str, nets: list[int]) -> None:
        if name in self.outputs:
            raise CircuitError(f"output bus {name!r} already declared")
        self.outputs[name] = list(nets)

    def gate(self, kind: str, *ins: int) -> int:
        """Append one gate; returns its output net."""
        if kind not in _KINDS:
            raise CircuitError(f"unknown gate kind {kind!r}")
        if len(ins) != _KINDS[kind]:
            raise CircuitError(f"{kind} takes {_KINDS[kind]} inputs, got {len(ins)}")
        for net in ins:
            if net >= self._n_nets:
                raise CircuitError(f"gate references undriven net {net}")
        out = self.new_net()
        self.gates.append(_Gate(kind, tuple(ins), out))
        self._depth[out] = 1 + max(self._depth[i] for i in ins)
        return out

    # convenience compound gates -----------------------------------------
    def and_(self, a: int, b: int) -> int:
        return self.gate("AND", a, b)

    def or_(self, a: int, b: int) -> int:
        return self.gate("OR", a, b)

    def xor(self, a: int, b: int) -> int:
        return self.gate("XOR", a, b)

    def not_(self, a: int) -> int:
        return self.gate("NOT", a)

    def mux(self, sel: int, a: int, b: int) -> int:
        """2:1 mux: ``sel ? b : a`` (three gates, like real cells)."""
        return self.or_(self.and_(a, self.not_(sel)), self.and_(b, sel))

    # ----------------------------------------------------------- analysis
    @property
    def gate_count(self) -> int:
        return len(self.gates)

    @property
    def depth(self) -> int:
        targets = [n for bus in self.outputs.values() for n in bus]
        if not targets:
            targets = list(self._depth)
        return max(self._depth[n] for n in targets)

    # ---------------------------------------------------------- evaluation
    def evaluate(self, **bus_values: int) -> dict[str, int]:
        """Drive the named input buses with integer values (LSB-first
        encoding) and return every output bus as an integer."""
        values = {0: 0, 1: 1}
        for name, bus in self.inputs.items():
            if name not in bus_values:
                raise CircuitError(f"missing value for input bus {name!r}")
            v = bus_values[name]
            if v < 0 or v >= (1 << len(bus)):
                raise CircuitError(
                    f"value {v} does not fit input bus {name!r} ({len(bus)} bits)"
                )
            for i, net in enumerate(bus):
                values[net] = (v >> i) & 1
        extra = set(bus_values) - set(self.inputs)
        if extra:
            raise CircuitError(f"unknown input buses: {sorted(extra)}")

        for gate in self.gates:
            ins = [values[i] for i in gate.inputs]
            if gate.kind == "AND":
                out = ins[0] & ins[1]
            elif gate.kind == "OR":
                out = ins[0] | ins[1]
            elif gate.kind == "XOR":
                out = ins[0] ^ ins[1]
            else:  # NOT
                out = ins[0] ^ 1
            values[gate.output] = out

        result = {}
        for name, bus in self.outputs.items():
            v = 0
            for i, net in enumerate(bus):
                v |= values[net] << i
            result[name] = v
        return result


# ---------------------------------------------------------------- builders
def _full_adder(nl: Netlist, a: int, b: int, cin: int) -> tuple[int, int]:
    axb = nl.xor(a, b)
    s = nl.xor(axb, cin)
    cout = nl.or_(nl.and_(a, b), nl.and_(axb, cin))
    return s, cout


def build_ripple_adder(
    nl: Netlist, a: list[int], b: list[int], cin: int | None = None
) -> tuple[list[int], int]:
    """Ripple-carry adder over two equal-width buses; returns (sum, cout)."""
    if len(a) != len(b):
        raise CircuitError("adder operand widths differ")
    carry = cin if cin is not None else nl.zero
    out = []
    for abit, bbit in zip(a, b):
        s, carry = _full_adder(nl, abit, bbit, carry)
        out.append(s)
    return out, carry


def build_popcount(nl: Netlist, bits: list[int], out_width: int) -> list[int]:
    """Population counter: adder tree over single-bit inputs."""
    total = [nl.zero] * out_width
    for bit in bits:
        addend = [bit] + [nl.zero] * (out_width - 1)
        total, _ = build_ripple_adder(nl, total, addend)
    return total


def build_barrel_shifter(
    nl: Netlist, value: list[int], shift: list[int]
) -> list[int]:
    """Logical right shifter: one mux rank per shift-control bit."""
    current = list(value)
    for rank, sel in enumerate(shift):
        amount = 1 << rank
        shifted = [
            current[i + amount] if i + amount < len(current) else nl.zero
            for i in range(len(current))
        ]
        current = [nl.mux(sel, keep, sh) for keep, sh in zip(current, shifted)]
    return current


def build_less_than(nl: Netlist, a: list[int], b: list[int]) -> int:
    """Unsigned ``a < b`` over equal-width buses (MSB-first ripple)."""
    if len(a) != len(b):
        raise CircuitError("comparator operand widths differ")
    lt = nl.zero
    eq = nl.one
    for abit, bbit in zip(reversed(a), reversed(b)):
        bit_lt = nl.and_(nl.not_(abit), bbit)
        bit_eq = nl.not_(nl.xor(abit, bbit))
        lt = nl.or_(lt, nl.and_(eq, bit_lt))
        eq = nl.and_(eq, bit_eq)
    return lt


def build_minimum_selector(
    nl: Netlist, candidates: list[list[int]]
) -> list[int]:
    """Index (binary) of the minimum candidate; earliest index wins ties.

    Linear scan structure: keep (best_value, best_index), replace on a
    strict less-than — exactly the tie-break the paper requires when the
    current configuration is candidate 0.
    """
    if not candidates:
        raise CircuitError("minimum selector needs candidates")
    index_width = max(1, (len(candidates) - 1).bit_length())
    best = list(candidates[0])
    best_index = [nl.zero] * index_width
    for k in range(1, len(candidates)):
        cand = candidates[k]
        take = build_less_than(nl, cand, best)
        best = [nl.mux(take, old, new) for old, new in zip(best, cand)]
        k_bits = [(nl.one if (k >> i) & 1 else nl.zero) for i in range(index_width)]
        best_index = [
            nl.mux(take, old, new) for old, new in zip(best_index, k_bits)
        ]
    return best_index


def build_cem_generator(
    nl: Netlist,
    required: list[list[int]],
    shifts: list[int],
    sum_width: int = 6,
) -> list[int]:
    """One Fig. 3(b) CEM generator with hard-wired shift amounts.

    ``required`` holds the five 3-bit required-count buses; ``shifts`` the
    per-type constant shift (0, 1 or 2).  Returns the ``sum_width``-bit
    error bus.
    """
    if len(required) != len(shifts):
        raise CircuitError("one shift per required-count bus")
    total = [nl.zero] * sum_width
    for bus, shift in zip(required, shifts):
        if shift < 0 or shift >= len(bus):
            raise CircuitError(f"hard-wired shift {shift} out of range")
        shifted = bus[shift:] + [nl.zero] * shift  # drop low bits = >> shift
        padded = shifted + [nl.zero] * (sum_width - len(shifted))
        total, _ = build_ripple_adder(nl, total, padded)
    return total
