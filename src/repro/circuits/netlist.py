"""Gate-level netlists: the one hardware model of the selection circuits.

Blocks are explicit gate graphs — 2-input AND/OR/XOR and NOT primitives
wired through numbered nets — that can be evaluated, counted and
depth-analysed.  :mod:`repro.circuits.selection_netlist` builds the Fig. 2
selection unit from the generic blocks here; the simulator's lookup tables
(:mod:`repro.steering.selection`) are truth tables of those builders, and
the E-COST figures are their gate counts and depths.

Evaluation is bit-sliced: every net carries one int whose bit ``p`` is the
net's value under input pattern ``p``, so one pass over the gates yields a
whole truth table (:meth:`Netlist.truth_table`); :meth:`Netlist.evaluate`
is its one-pattern case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import CircuitError

__all__ = [
    "Netlist",
    "build_ripple_adder",
    "build_popcount",
    "build_less_than",
    "build_minimum_selector",
]

_KINDS = {"AND": 2, "OR": 2, "XOR": 2, "NOT": 1}

#: ASCII '0'/'1' -> byte 0/1: a pattern-bit string becomes one byte per pattern.
_SPREAD = bytes.maketrans(b"01", b"\x00\x01")


class _Gate(NamedTuple):
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
    #: ``(name, gates, depth)`` per stage closed by :meth:`end_stage`: the
    #: gates added since the previous stage and the depth of its outputs.
    stages: list[tuple[str, int, int]] = field(default_factory=list)
    _depth: list[int] = field(default_factory=lambda: [0, 0])

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
        self._depth.append(0)
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

    def depth_of(self, nets: list[int]) -> int:
        """Logic levels on the longest path into any of ``nets``."""
        return max((self._depth[n] for n in nets), default=0)

    @property
    def depth(self) -> int:
        targets = [n for bus in self.outputs.values() for n in bus]
        return self.depth_of(targets) if targets else max(self._depth)

    def end_stage(self, name: str, nets: list[int]) -> None:
        """Close a named stage whose outputs are ``nets`` (see ``stages``)."""
        before = sum(gates for _, gates, _ in self.stages)
        self.stages.append((name, self.gate_count - before, self.depth_of(nets)))

    # ---------------------------------------------------------- evaluation
    def truth_table(self, **fixed: int) -> dict[str, list[int]]:
        """Every output bus over every combination of the input buses not
        in ``fixed``, in one bit-sliced pass over the gates.

        Pattern ``p`` drives the free input bits — buses in declaration
        order, each LSB first — with the bits of ``p``, and each ``fixed``
        bus with its value.  Returns every output bus as the list of its
        values indexed by ``p``.
        """
        unknown = set(fixed) - set(self.inputs)
        if unknown:
            raise CircuitError(f"unknown input buses: {sorted(unknown)}")
        free = [
            net for name, bus in self.inputs.items() if name not in fixed for net in bus
        ]
        n_patterns = 1 << len(free)
        ones = (1 << n_patterns) - 1
        values = [0] * self._n_nets
        values[1] = ones
        for name, value in fixed.items():
            bus = self.inputs[name]
            if value < 0 or value >= (1 << len(bus)):
                raise CircuitError(
                    f"value {value} does not fit input bus {name!r} ({len(bus)} bits)"
                )
            for i, net in enumerate(bus):
                if (value >> i) & 1:
                    values[net] = ones
        for j, net in enumerate(free):
            # bit p is bit j of p: runs of 2**j zeros then 2**j ones
            run = 1 << j
            values[net] = ones // ((1 << (2 * run)) - 1) * (((1 << run) - 1) << run)

        for kind, ins, out in self.gates:
            a = values[ins[0]]
            if kind == "AND":
                values[out] = a & values[ins[1]]
            elif kind == "OR":
                values[out] = a | values[ins[1]]
            elif kind == "XOR":
                values[out] = a ^ values[ins[1]]
            else:  # NOT
                values[out] = a ^ ones

        return {
            name: _per_pattern([values[net] for net in bus], n_patterns)
            for name, bus in self.outputs.items()
        }

    def evaluate(self, **bus_values: int) -> dict[str, int]:
        """Drive every input bus with an integer (LSB-first encoding) and
        return every output bus as an integer: the one-pattern truth table."""
        for name in self.inputs:
            if name not in bus_values:
                raise CircuitError(f"missing value for input bus {name!r}")
        return {
            name: column[0] for name, column in self.truth_table(**bus_values).items()
        }


def _per_pattern(nets: list[int], n_patterns: int) -> list[int]:
    """Bit-sliced bus nets -> the bus value of each pattern.

    Each net's pattern bits are spread one per byte (its binary digits
    translated to bytes 0/1), so a group of up to eight bus bits is one
    shift-and-OR per bit and its per-pattern values are the bytes.
    """
    result = [0] * n_patterns
    for low in range(0, len(nets), 8):
        packed = 0
        for i, v in enumerate(nets[low : low + 8]):
            digits = format(v, f"0{n_patterns}b").encode().translate(_SPREAD)
            packed |= int.from_bytes(digits, "big") << i
        group = packed.to_bytes(n_patterns, "little")
        result = [r | (g << low) for r, g in zip(result, group)]
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
    """Population counter: one ripple add per input bit, so the
    ``out_width``-bit count wraps modulo ``2**out_width``."""
    total = [nl.zero] * out_width
    for bit in bits:
        addend = [bit] + [nl.zero] * (out_width - 1)
        total, _ = build_ripple_adder(nl, total, addend)
    return total


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
