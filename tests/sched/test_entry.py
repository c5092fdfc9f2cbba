"""Tests for the in-flight instruction record."""

from repro.frontend.fetch import FetchedInstruction
from repro.isa.futypes import FUType
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.sched.entry import EntryState, RuuEntry, SourceBinding


def _entry(opcode=Opcode.ADD, seq=0, producer1=None, producer2=None, **instr_kwargs):
    instr = Instruction(opcode, **instr_kwargs)
    fetched = FetchedInstruction(pc=0, instruction=instr, predicted_next=1)
    return RuuEntry(
        seq=seq, fetched=fetched, producer1=producer1, producer2=producer2
    )


class TestLifecycle:
    def test_starts_waiting(self):
        e = _entry()
        assert e.state is EntryState.WAITING
        assert e.state is not EntryState.COMPLETED


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


class TestSources:
    """``sources`` is derived from the bound producers on demand."""

    def test_unbound_sources_read_the_register_file(self):
        e = _entry(Opcode.ADD, rd=1, rs1=2, rs2=3)
        assert e.sources == (
            SourceBinding("int", 2, None),
            SourceBinding("int", 3, None),
        )

    def test_bound_sources_name_the_producer_seq(self):
        p = _entry(Opcode.LW, seq=4, rd=2, rs1=1)
        e = _entry(Opcode.ADD, seq=5, producer1=p, rd=1, rs1=2, rs2=3)
        assert e.sources[0] == SourceBinding("int", 2, 4)
        assert e.sources[1].producer_seq is None

    def test_unused_and_x0_sources_are_none(self):
        assert _entry(Opcode.ADD, rd=1, rs1=0, rs2=3).sources[0] is None
        assert _entry(Opcode.HALT).sources == (None, None)
