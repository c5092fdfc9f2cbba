"""The :class:`Instruction` value type used throughout the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.isa.futypes import FUType
from repro.isa.opcodes import Format, Opcode, OpcodeSpec, OperandClass, spec_of

__all__ = ["Instruction", "spec_attributes"]


def spec_attributes(spec: OpcodeSpec) -> dict[str, object]:
    """The spec-derived attributes of an instruction with opcode ``spec``,
    by name: the values :class:`Instruction`'s cached properties compute."""
    return {
        "spec": spec,
        "fu_type": spec.fu_type,
        "latency": spec.latency,
        "is_branch": spec.is_branch,
        "is_jump": spec.is_jump,
        "is_control": spec.is_branch or spec.is_jump or spec.is_halt,
        "is_load": spec.is_load,
        "is_store": spec.is_store,
        "is_halt": spec.is_halt,
    }


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``rd``, ``rs1`` and ``rs2`` are register indices whose register class
    (integer or floating-point) is determined by the opcode; unused operand
    slots are 0.  ``imm`` is the sign-extended immediate (branch/jump
    immediates are in instruction words).

    The spec-derived attributes (:func:`spec_attributes`) and the
    :attr:`alu_handler` never change for a frozen instruction and are read
    tens of times per cycle.  The simulator runs the instructions
    :func:`repro.isa.encoding.decode` builds from the program's binary,
    and ``decode`` writes them into each new instance's ``__dict__`` from
    one per-opcode table.
    Instructions built otherwise (by the assembler or by hand) compute
    them on first read, as ``cached_property`` values stored under the
    same names.  They are not set here in ``__post_init__``: that would
    charge every assembled instruction too, and the assembler's
    instructions are encoded, not simulated.

    The assembler constructs each instruction of a program, and
    construction is most of what it costs per word: ``__post_init__``
    tests the three registers with one condition, and the hot callers
    pass the fields by position.  ``decode`` builds one instance per
    distinct live word, shared by every program that holds the word, in
    one ``__dict__`` fill without ``__init__`` (its fields are in range
    by construction).  Nothing may write to a decoded instruction but
    its cached properties, which compute the same value for every holder.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        # one test per instruction built; the loop only names the field
        if not (0 <= self.rd < 32 and 0 <= self.rs1 < 32 and 0 <= self.rs2 < 32):
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
    def alu_handler(self):
        """``handler(s1, s2, imm)`` giving the result of a non-memory,
        non-control instruction; ``None`` for loads, stores and control
        instructions (see :func:`repro.isa.semantics.alu_handler`).

        The handlers are lambdas, so an instruction holding one does not
        pickle.  The simulator reads it only on decoded instructions,
        which never travel with a pickled :class:`~repro.isa.program.
        Program`."""
        # imported here: the semantics module imports this one
        from repro.isa.semantics import alu_handler

        return alu_handler(self.opcode)

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
