"""Every program the repository builds stays byte-identical.

One SHA-256 pins what the assembler, the encoder and the workload
generators produce for every built-in kernel, a grid of synthetic and
phased programs and twenty fuzzer programs: each program's instructions,
encoded words, both label maps (in definition order), data image and
source text.  A change that moves any of them changes the digest.

The decoder is pinned against the field-extraction decoder it replaced
(:func:`reference_decode`, kept here as the reference) on seeded random
words, refused words included: the same instruction and attributes, or
the same exception type and text.

Regenerate :data:`PROGRAMS_DIGEST` only for an intended change of a
program with ``PYTHONPATH=src python -m tests.isa.test_build_pins``.
"""

import hashlib
import random

import pytest

from repro.errors import DisassemblerError
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble
from repro.isa.encoding import _DECODE_TABLE, WORD_BITS, decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format
from repro.utils.bitops import bits, mask, sign_extend
from repro.verify.generator import generate_program
from repro.workloads.kernels import all_kernels
from repro.workloads.kernels_extra import extended_kernels
from repro.workloads.kernels_numeric import numeric_kernels
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import (
    BALANCED_MIX, FP_MIX, INT_MIX, MEM_MIX, synthetic_program,
)

PROGRAMS_DIGEST = "673d8b8c3a61620889f43e979b137591d2d1da99e3e55787fc7f76216024f97b"

DECODE_WORDS = 100_000


def programs() -> list[tuple[str, object]]:
    """``(name, program)`` of every pinned program, in a fixed order."""
    out = [(k.name, k.program)
           for k in all_kernels() + extended_kernels() + numeric_kernels()]
    for mix in (INT_MIX, MEM_MIX, FP_MIX, BALANCED_MIX):
        for seed in (0, 1, 2):
            for body_len in (24, 48):
                out.append((f"mix:{mix.name}:{seed}:{body_len}",
                            synthetic_program(mix, body_len=body_len,
                                              iterations=7, seed=seed)))
    for seed in (0, 1, 2):
        out.append((f"phased:{seed}", phased_program(
            [(INT_MIX, 3), (MEM_MIX, 3), (FP_MIX, 3)], body_len=48, seed=seed)))
    for seed in range(20):
        out.append((f"fuzz:{seed}", generate_program(seed)))
    return out


def program_record(program) -> tuple:
    return (
        tuple((i.opcode.name, i.rd, i.rs1, i.rs2, i.imm)
              for i in program.instructions),
        program.words,
        tuple(program.labels.items()),
        bytes(program.data),
        tuple(program.data_labels.items()),
        program.source,
    )


def programs_digest(named) -> str:
    h = hashlib.sha256()
    for name, program in named:
        h.update(repr((name, program_record(program))).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def built():
    return programs()


def test_every_program_is_byte_identical(built):
    assert len(built) == 19 + 24 + 3 + 20
    assert programs_digest(built) == PROGRAMS_DIGEST


def test_disassembly_reassembles_to_the_same_words(built):
    for name, program in built:
        again = assemble("\n".join(disassemble(program.words)))
        assert again.words == program.words, name


def reference_decode(word: int) -> Instruction:
    """The decoder as it was written with :mod:`repro.utils.bitops`."""
    if word < 0 or word > mask(WORD_BITS):
        raise DisassemblerError(f"not a 32-bit word: {word:#x}")
    opnum = bits(word, 31, 25)
    entry = _DECODE_TABLE.get(opnum)
    if entry is None:
        raise DisassemblerError(f"unknown opcode {opnum:#04x} in word {word:#010x}")
    opcode, fmt, attributes = entry
    if fmt is Format.R:
        instr = Instruction(opcode, rd=bits(word, 24, 20),
                            rs1=bits(word, 19, 15), rs2=bits(word, 14, 10))
    elif fmt is Format.I:
        instr = Instruction(opcode, rd=bits(word, 24, 20), rs1=bits(word, 19, 15),
                            imm=sign_extend(bits(word, 14, 0), 15))
    elif fmt in (Format.S, Format.B):
        imm = (bits(word, 24, 20) << 10) | bits(word, 9, 0)
        instr = Instruction(opcode, rs1=bits(word, 19, 15),
                            rs2=bits(word, 14, 10), imm=sign_extend(imm, 15))
    elif fmt is Format.J:
        instr = Instruction(opcode, rd=bits(word, 24, 20),
                            imm=sign_extend(bits(word, 19, 0), 20))
    else:
        instr = Instruction(opcode)
    instr.__dict__.update(attributes)
    return instr


def outcome(decoder, word: int):
    try:
        instr = decoder(word)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    state = dict(vars(instr))
    # decode shares the instruction of a word a live program holds, and a
    # run of that program may have cached its dispatch template: it must
    # be the one the instruction's fields give
    if "dispatch_template" in state:
        cached = state.pop("dispatch_template")
        assert cached == Instruction.dispatch_template.func(instr), hex(word)
    return instr, state


def test_decode_matches_the_reference_decoder():
    rng = random.Random(20261019)
    words = [rng.getrandbits(32) for _ in range(DECODE_WORDS)]
    words += [0, 0xFFFFFFFF, -1, 1 << 32, (1 << 40) + 5]
    refused = 0
    for word in words:
        expected = outcome(reference_decode, word)
        assert outcome(decode, word) == expected, hex(word)
        refused += expected[0] is DisassemblerError
    # both outcomes are exercised many times over
    assert 10_000 < refused < len(words) - 10_000


if __name__ == "__main__":
    print(programs_digest(programs()))
