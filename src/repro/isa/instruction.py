"""The :class:`Instruction` value type used throughout the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.isa.futypes import FUType
from repro.isa.opcodes import Format, Opcode, OpcodeSpec, OperandClass, spec_of

__all__ = ["Instruction"]


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``rd``, ``rs1`` and ``rs2`` are register indices whose register class
    (integer or floating-point) is determined by the opcode; unused operand
    slots are 0.  ``imm`` is the sign-extended immediate (branch/jump
    immediates are in instruction words).

    The spec-derived attributes (``spec``, ``fu_type``, ``latency``, the
    ``is_*`` predicates) are cached per instance: the scheduler reads them
    tens of times per cycle, and the value never changes for a frozen
    instruction.  ``cached_property`` writes straight into the instance
    ``__dict__``, which frozen dataclasses permit.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for name in ("rd", "rs1", "rs2"):
            v = getattr(self, name)
            if not 0 <= v < 32:
                raise ValueError(f"{name} out of range: {v}")

    @cached_property
    def spec(self) -> OpcodeSpec:
        return spec_of(self.opcode)

    @cached_property
    def fu_type(self) -> FUType:
        """The (single) functional-unit type that executes this instruction."""
        return self.spec.fu_type

    @cached_property
    def latency(self) -> int:
        return self.spec.latency

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @cached_property
    def is_branch(self) -> bool:
        return self.spec.is_branch

    @cached_property
    def is_jump(self) -> bool:
        return self.spec.is_jump

    @cached_property
    def is_control(self) -> bool:
        return self.is_branch or self.is_jump or self.spec.is_halt

    @cached_property
    def is_load(self) -> bool:
        return self.spec.is_load

    @cached_property
    def is_store(self) -> bool:
        return self.spec.is_store

    @cached_property
    def is_halt(self) -> bool:
        return self.spec.is_halt

    @cached_property
    def dispatch_template(
        self,
    ) -> tuple[tuple[str, int] | None, tuple[str, int] | None, tuple[str, int] | None]:
        """``(src1, src2, destination)`` as ``(reg_class, index)`` rename keys.

        A source is ``None`` when unused or hard-wired integer ``x0``; the
        destination is :meth:`destination`.  Dispatch reads this once per
        instruction instead of decoding the operand classes every time.
        """
        spec = self.spec
        srcs: list[tuple[str, int] | None] = []
        for cls, idx in ((spec.src1, self.rs1), (spec.src2, self.rs2)):
            if cls is OperandClass.NONE or (cls is OperandClass.INT and idx == 0):
                srcs.append(None)
            else:
                srcs.append(("int" if cls is OperandClass.INT else "fp", idx))
        return srcs[0], srcs[1], self.destination()

    def destination(self) -> tuple[str, int] | None:
        """``(reg_class, index)`` written by this instruction, or ``None``.

        Writes to the hard-wired integer zero register are reported as
        ``None`` (they have no architectural effect and create no
        dependence).
        """
        spec = self.spec
        if spec.dst is OperandClass.NONE:
            return None
        if spec.dst is OperandClass.INT and self.rd == 0:
            return None
        return ("int" if spec.dst is OperandClass.INT else "fp"), self.rd

    def sources(self) -> tuple[tuple[str, int], ...]:
        """Registers read by this instruction as ``(reg_class, index)`` pairs.

        Reads of integer ``x0`` are omitted: they never create a dependence.
        """
        spec = self.spec
        out: list[tuple[str, int]] = []
        for cls, idx in ((spec.src1, self.rs1), (spec.src2, self.rs2)):
            if cls is OperandClass.NONE:
                continue
            if cls is OperandClass.INT and idx == 0:
                continue
            out.append(("int" if cls is OperandClass.INT else "fp", idx))
        return tuple(out)

    def __str__(self) -> str:
        from repro.isa.disassembler import format_instruction

        return format_instruction(self)
