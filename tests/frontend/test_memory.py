"""Tests for instruction and data memories."""

import pytest

from repro.errors import SimulationError
from repro.frontend.memory import DataMemory, InstructionMemory
from repro.isa.assembler import assemble
from repro.isa.opcodes import Opcode


class TestInstructionMemory:
    def test_fetch_decodes_binary(self):
        imem = InstructionMemory(assemble("add x1, x2, x3\nhalt\n"))
        assert imem.instructions[0].opcode is Opcode.ADD
        assert imem.instructions[1].opcode is Opcode.HALT
        assert len(imem) == 2


class TestDataMemory:
    def test_store_load_roundtrip(self):
        mem = DataMemory(size=64)
        mem.store(8, b"\x01\x02\x03\x04")
        assert mem.load(8, 4) == b"\x01\x02\x03\x04"

    def test_initial_image(self):
        mem = DataMemory(size=16, image=b"\xaa\xbb")
        assert mem.load(0, 1) == b"\xaa"
        assert mem.load(1, 1) == b"\xbb"

    def test_image_too_large(self):
        with pytest.raises(SimulationError):
            DataMemory(size=1, image=b"xy")

    def test_alignment_enforced(self):
        mem = DataMemory(size=64)
        with pytest.raises(SimulationError, match="misaligned"):
            mem.load(2, 4)
        with pytest.raises(SimulationError, match="misaligned"):
            mem.store(1, b"\x00\x00")
        mem.load(2, 2)  # naturally aligned half is fine

    def test_bounds_enforced(self):
        mem = DataMemory(size=8)
        with pytest.raises(SimulationError):
            mem.load(8, 4)
        with pytest.raises(SimulationError):
            mem.store(-4, b"\x00" * 4)

    def test_access_counters(self):
        mem = DataMemory(size=64)
        mem.store(0, b"\x00" * 4)
        mem.load(0, 4)
        mem.peek(0, 4)  # peeks don't count
        assert (mem.reads, mem.writes) == (1, 1)

    def test_peek_helpers(self):
        mem = DataMemory(size=64)
        mem.store(0, (1234).to_bytes(4, "little"))
        assert mem.peek_word(0) == 1234
        import struct

        mem.store(4, struct.pack("<f", 2.5))
        assert mem.peek_float(4) == 2.5
