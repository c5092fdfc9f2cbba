"""The instruction fetch unit.

Each cycle the fetch unit produces a *packet* of up to ``width``
instructions along the predicted path:

* sequential instructions extend the packet;
* a predicted-taken control instruction normally ends the packet — unless
  the trace cache knows the target is on a hot path, in which case the
  packet continues at the target within the same cycle;
* ``jalr`` targets come from the BTB (a miss predicts fall-through and is
  repaired at execute);
* ``halt`` ends the packet and stalls fetch until a redirect.

The unit never executes anything: mispredictions are discovered by the
back end, which calls :meth:`FetchUnit.redirect`.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.frontend.branch import BTB, BranchPredictor
from repro.frontend.memory import InstructionMemory
from repro.frontend.trace_cache import TraceCache
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode

__all__ = ["FetchedInstruction", "FetchUnit"]

_JAL = Opcode.JAL
_JALR = Opcode.JALR


class FetchedInstruction(NamedTuple):
    """One instruction flowing down the pipeline with its prediction.

    A tuple record: one is built per fetched instruction, and a tuple
    builds several times faster than a frozen dataclass.
    """

    pc: int
    instruction: Instruction
    #: PC the fetch unit continued at (the prediction to validate).
    predicted_next: int
    #: True when the prediction was 'taken' (control instructions only).
    predicted_taken: bool = False


class FetchUnit:
    """Predicted-path fetch with trace-cache packet extension."""

    def __init__(
        self,
        imem: InstructionMemory,
        predictor: BranchPredictor | None = None,
        btb: BTB | None = None,
        trace_cache: TraceCache | None = None,
        width: int = 4,
        entry: int = 0,
    ) -> None:
        self.imem = imem
        #: the decoded program, read by index in :meth:`fetch_packet`.
        self._program = imem.instructions
        self.predictor = predictor if predictor is not None else BranchPredictor()
        self.btb = btb if btb is not None else BTB()
        self.trace_cache = trace_cache
        self.width = width
        self.pc = entry
        self._stalled = False
        self.packets = 0
        self.fetched = 0

    # ------------------------------------------------------------- control
    def redirect(self, pc: int) -> None:
        """Point fetch at the corrected path (mispredict repair)."""
        self.pc = pc
        self._stalled = False

    # -------------------------------------------------------------- fetch
    def _predict(self, pc: int, instr: Instruction) -> tuple[int, bool]:
        """(predicted_next, predicted_taken) for the instruction at ``pc``."""
        op = instr.opcode
        if op is _JAL:
            return pc + instr.imm, True
        if op is _JALR:
            target = self.btb.predict(pc)
            if target is None:
                return pc + 1, False
            return target, True
        if instr.is_branch:
            if self.predictor.predict(pc):
                return pc + instr.imm, True
            return pc + 1, False
        return pc + 1, False

    def fetch_packet(self) -> list[FetchedInstruction]:
        """Fetch up to ``width`` instructions along the predicted path."""
        if self._stalled:
            return []
        packet: list[FetchedInstruction] = []
        pc = self.pc
        program = self._program
        width = self.width
        while len(packet) < width:
            if not 0 <= pc < len(program):  # past the program's end
                self._stalled = True
                break
            instr = program[pc]
            if instr.is_control:
                predicted_next, taken = self._predict(pc, instr)
            else:
                predicted_next, taken = pc + 1, False
            packet.append(FetchedInstruction(pc, instr, predicted_next, taken))
            if instr.is_halt:
                self._stalled = True
                pc = predicted_next
                break
            if taken:
                # a taken control transfer ends the packet unless the trace
                # cache marks the target as a known hot path
                pc = predicted_next
                if self.trace_cache is None:
                    break
                if self.trace_cache.lookup(pc) is None:
                    self.trace_cache.insert(pc, (pc,))
                    break
                continue
            pc = predicted_next
        self.pc = pc
        if packet:
            self.packets += 1
            self.fetched += len(packet)
        return packet
