"""Instruction and data memories (the paper's separate fixed modules).

The instruction memory is word-addressed (the PC counts instructions) and
backed by the program's binary encoding, so the simulated processor really
does fetch and decode legacy machine words.  The data memory is
byte-addressed with natural-alignment checking.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.instruction import Instruction
from repro.isa.program import Program

__all__ = ["InstructionMemory", "DataMemory"]


class InstructionMemory:
    """Word-addressed read-only instruction store."""

    def __init__(self, program: Program) -> None:
        # the program decodes itself once, so N processors over one
        # program (an in-process run_many sweep) share its Instruction
        # objects
        self._decoded = program.decoded

    def __len__(self) -> int:
        return len(self._decoded)

    @property
    def instructions(self) -> list[Instruction]:
        """The decoded program indexed by PC (treat as read-only)."""
        return self._decoded


class DataMemory:
    """Byte-addressed data store with natural alignment."""

    def __init__(self, size: int = 1 << 20, image: bytes | bytearray = b"") -> None:
        if size <= 0:
            raise SimulationError(f"data memory size must be positive, got {size}")
        if len(image) > size:
            raise SimulationError(
                f"initial image ({len(image)} bytes) exceeds memory size {size}"
            )
        self.size = size
        self._mem = bytearray(size)
        self._mem[: len(image)] = image
        self.reads = 0
        self.writes = 0

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise SimulationError(
                f"data access out of range: addr={addr:#x} size={nbytes}"
            )
        # natural alignment is enforced for real access widths; bulk peeks
        # (e.g. comparing whole regions in tests) are exempt
        if nbytes in (2, 4, 8) and addr % nbytes:
            raise SimulationError(
                f"misaligned {nbytes}-byte access at addr={addr:#x}"
            )

    def load(self, addr: int, nbytes: int) -> bytes:
        self._check(addr, nbytes)
        self.reads += 1
        return bytes(self._mem[addr : addr + nbytes])

    def store(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self.writes += 1
        self._mem[addr : addr + len(data)] = data

    def peek(self, addr: int, nbytes: int) -> bytes:
        """Read without counting (for result checking in tests/examples)."""
        self._check(addr, nbytes)
        return bytes(self._mem[addr : addr + nbytes])

    def peek_word(self, addr: int) -> int:
        import struct

        return struct.unpack("<I", self.peek(addr, 4))[0]

    def peek_float(self, addr: int) -> float:
        import struct

        return struct.unpack("<f", self.peek(addr, 4))[0]
