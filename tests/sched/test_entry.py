"""Tests for the in-flight instruction record."""

from repro.frontend.fetch import FetchedInstruction
from repro.isa.futypes import FUType
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.sched.entry import EntryState, RuuEntry


def _entry(opcode=Opcode.ADD, seq=0, **instr_kwargs):
    instr = Instruction(opcode, **instr_kwargs)
    fetched = FetchedInstruction(pc=0, instruction=instr, predicted_next=1)
    return RuuEntry(seq=seq, fetched=fetched, sources=(None, None))


class TestLifecycle:
    def test_starts_waiting(self):
        e = _entry()
        assert e.state is EntryState.WAITING
        assert not e.completed


class TestClassification:
    def test_properties_delegate_to_instruction(self):
        e = _entry(Opcode.MUL, rd=1, rs1=2, rs2=3)
        assert e.fu_type is FUType.INT_MDU
        assert e.instruction.mnemonic == "mul"
        assert e.pc == 0

    def test_memory_flags(self):
        assert _entry(Opcode.LW, rd=1, rs1=2).is_load
        assert _entry(Opcode.SW, rs1=1, rs2=2).is_store
        assert not _entry(Opcode.ADD).is_load
