"""Pinned results of every execution-semantics function over edge operands.

The differential fuzzer cannot see a change to :mod:`repro.isa.semantics`,
because the reference interpreter calls the same functions, and the golden
traces cover only a few workloads.  This test replays a fixed grid of edge
cases through every opcode and compares each result with
``tests/isa/data/semantics_pins.json``:

* every ALU opcode over the edge operands of its source classes (0, 1,
  ``0x7FFFFFFF``, ``0x80000000``, ``0xFFFFFFFF``, shift amounts 31/32/33;
  ±0.0, ±inf, NaN, a binary32 denormal, 3.4e38), so divide by zero and
  ``INT_MIN / -1`` are included, and every I-format opcode over negative
  and ``0x7FFF`` immediates;
* every control opcode over the integer edge operands, with a backward
  and a forward branch offset and every jump immediate above;
* every load and store through ``access_size``, ``store_bytes``,
  ``load_value`` and ``effective_address``;
* every opcode a function does not handle, with the error it raises.

Results are encoded so that a type change shows: floats as ``"f:<hex>"``
(every NaN as ``"f:nan"``), bytes as ``"b:<hex>"``, errors as
``{"raises": type, "message": text}``.  Regenerate the file only for an
intended semantic change::

    PYTHONPATH=src python -m tests.isa.test_semantics_pins --write
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from repro.isa import semantics
from repro.isa.instruction import Instruction
from repro.isa.opcodes import ALL_SPECS, Format, Opcode, OperandClass

PINS = Path(__file__).parent / "data" / "semantics_pins.json"

INT_EDGES = (0, 1, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
FP_EDGES = (
    0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan,
    1.401298464324817e-45,  # the smallest binary32 denormal
    3.4e38,
)
IMM_EDGES = (0, 1, -1, 31, 32, 33, -16384, 0x7FFF)
#: a backward and a forward branch offset, in instruction words.
BRANCH_OFFSETS = (-3, 0x7FFF)
PC = 10
RAW = {
    1: (b"\x00", b"\x7f", b"\x80", b"\xff"),
    2: (b"\x00\x00", b"\xff\x7f", b"\x00\x80", b"\xff\xff"),
    4: (
        b"\x00\x00\x00\x00", b"\xff\xff\xff\x7f", b"\x00\x00\x00\x80",
        b"\xff\xff\xff\xff", b"\x01\x00\x00\x00", b"\x00\x00\x80\x7f",
        b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x3f",
    ),
}


def encode(value):
    """JSON form of a semantics result that keeps its Python type."""
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, float):
        return "f:nan" if math.isnan(value) else "f:" + value.hex()
    if isinstance(value, bytes):
        return "b:" + value.hex()
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {value!r}")


def _call(fn, *args):
    try:
        return encode(fn(*args))
    except Exception as exc:  # the pinned behaviour includes the error
        return {"raises": type(exc).__name__, "message": str(exc)}


def _edges(cls: OperandClass):
    if cls is OperandClass.FP:
        return FP_EDGES
    if cls is OperandClass.INT:
        return INT_EDGES
    return (0,)  # an unused source reads as 0


def _key(fn: str, mnemonic: str, *args) -> str:
    return json.dumps([fn, mnemonic] + [encode(a) for a in args])


def compute_pins() -> dict[str, object]:
    """Every pinned case, keyed by function, mnemonic and inputs."""
    pins: dict[str, object] = {}
    for spec in ALL_SPECS:
        op = Opcode(spec.number)
        m = spec.mnemonic
        control = spec.format in (Format.B, Format.J, Format.N) or m == "jalr"
        memory = spec.is_load or spec.is_store
        imms = IMM_EDGES if spec.format in (Format.I, Format.J) else (0,)
        if spec.format is Format.B:
            imms = BRANCH_OFFSETS
        for imm in imms:
            instr = Instruction(op, rd=1, rs1=2, rs2=3, imm=imm)
            if control:
                for s1 in _edges(spec.src1):
                    for s2 in _edges(spec.src2):
                        pins[_key("control_outcome", m, imm, PC, s1, s2)] = _call(
                            semantics.control_outcome, instr, PC, s1, s2
                        )
            elif not memory:
                for s1 in _edges(spec.src1):
                    for s2 in _edges(spec.src2):
                        pins[_key("alu_result", m, imm, s1, s2)] = _call(
                            semantics.alu_result, instr, s1, s2
                        )
            else:
                for base in INT_EDGES:
                    pins[_key("effective_address", m, imm, base)] = _call(
                        semantics.effective_address, instr, base
                    )
        instr = Instruction(op, rd=1, rs1=2, rs2=3, imm=0)
        pins[_key("access_size", m)] = _call(semantics.access_size, instr)
        if spec.is_store:
            for value in _edges(spec.src2):
                pins[_key("store_bytes", m, value)] = _call(
                    semantics.store_bytes, instr, value
                )
        else:
            pins[_key("store_bytes", m, 0)] = _call(semantics.store_bytes, instr, 0)
        if spec.is_load:
            for raw in RAW[semantics.access_size(instr)]:
                pins[_key("load_value", m, raw)] = _call(
                    semantics.load_value, instr, raw
                )
        else:
            pins[_key("load_value", m, b"\x00\x00\x00\x00")] = _call(
                semantics.load_value, instr, b"\x00\x00\x00\x00"
            )
        if control or memory:
            pins[_key("alu_result", m, 0, 0, 0)] = _call(
                semantics.alu_result, instr, 0, 0
            )
        if not control:
            pins[_key("control_outcome", m, 0, PC, 0, 0)] = _call(
                semantics.control_outcome, instr, PC, 0, 0
            )
    return pins


def test_semantics_match_pins():
    expected = json.loads(PINS.read_text())
    actual = compute_pins()
    assert actual.keys() == expected.keys()
    diffs = [
        f"{key}: pinned {expected[key]!r}, now {actual[key]!r}"
        for key in expected
        if json.dumps(actual[key], sort_keys=True)
        != json.dumps(expected[key], sort_keys=True)
    ]
    assert not diffs, "\n".join(diffs[:20])


def test_pins_cover_every_opcode():
    pinned = {json.loads(key)[1] for key in json.loads(PINS.read_text())}
    assert pinned == {spec.mnemonic for spec in ALL_SPECS}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.isa.test_semantics_pins --write")
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(compute_pins(), indent=0, sort_keys=True) + "\n")
