"""A functional reference interpreter (golden model).

Executes a program architecturally — no pipeline, no timing — producing the
committed register file, the final data memory, and the dynamic
instruction trace.  It serves two purposes:

* correctness oracle: the cycle-level processor must commit exactly the
  same architectural state for every program;
* profiling: the dynamic functional-unit-type trace feeds the
  :class:`~repro.core.policies.OracleSteering` upper-bound policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.frontend.memory import DataMemory
from repro.isa import semantics
from repro.isa.futypes import FUType
from repro.isa.program import Program
from repro.isa.opcodes import OperandClass
from repro.sched.regfile import RegisterFile

__all__ = ["ReferenceResult", "run_reference"]


@dataclass
class ReferenceResult:
    """Architectural outcome of a functional run."""

    registers: RegisterFile
    memory: DataMemory
    #: dynamic instruction count (including the halt).
    executed: int
    #: functional-unit type of every executed instruction, in order.
    trace: list[FUType]
    halted: bool


#: data memory of a reference run, in bytes (the processor's default).
DMEM_SIZE = 1 << 20


def run_reference(
    program: Program, max_instructions: int = 1_000_000
) -> ReferenceResult:
    """Architecturally execute ``program`` from ``main`` to completion."""
    regs = RegisterFile()
    mem = DataMemory(size=DMEM_SIZE, image=program.data)
    pc = program.entry()
    trace: list[FUType] = []
    executed = 0
    halted = False

    while executed < max_instructions:
        if not 0 <= pc < len(program.instructions):
            raise SimulationError(f"reference run fell off the program at pc={pc}")
        instr = program.instructions[pc]
        spec = instr.spec
        trace.append(instr.fu_type)
        executed += 1

        def read(cls: OperandClass, idx: int) -> int | float:
            if cls is OperandClass.NONE:
                return 0
            return regs.read("int" if cls is OperandClass.INT else "fp", idx)

        s1 = read(spec.src1, instr.rs1)
        s2 = read(spec.src2, instr.rs2)

        if instr.is_halt:
            halted = True
            break
        if instr.is_control:
            _taken, target, link = semantics.control_outcome(instr, pc, int(s1), int(s2))
            if link is not None and instr.rd != 0:
                regs.write("int", instr.rd, link)
            pc = target
            continue
        if instr.is_store:
            addr = semantics.effective_address(instr, int(s1))
            mem.store(addr, semantics.store_bytes(instr, s2))
            pc += 1
            continue
        if instr.is_load:
            addr = semantics.effective_address(instr, int(s1))
            raw = mem.load(addr, semantics.access_size(instr))
            value = semantics.load_value(instr, raw)
            dest = instr.destination()
            if dest is not None:
                regs.write(dest[0], dest[1], value)
            pc += 1
            continue
        value = semantics.alu_result(instr, s1, s2)
        dest = instr.destination()
        if dest is not None:
            regs.write(dest[0], dest[1], value)
        pc += 1

    if not halted and executed >= max_instructions:
        raise SimulationError(
            f"reference run exceeded {max_instructions} instructions (no halt)"
        )
    return ReferenceResult(
        registers=regs, memory=mem, executed=executed, trace=trace, halted=halted
    )
