"""Tests for the Instruction value type."""

import pytest

from repro.isa.futypes import FUType
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


def _sources(i):
    """The registers ``i`` reads, as the dispatch stage renames them."""
    src1, src2, _ = i.dispatch_template
    return tuple(s for s in (src1, src2) if s is not None)


def test_basic_properties():
    i = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
    assert i.fu_type is FUType.INT_ALU
    assert i.latency == 1
    assert i.mnemonic == "add"
    assert not i.is_branch and not i.is_control


def test_register_range_checked():
    with pytest.raises(ValueError):
        Instruction(Opcode.ADD, rd=32)
    with pytest.raises(ValueError):
        Instruction(Opcode.ADD, rs1=-1)


def test_destination_and_sources():
    i = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
    assert i.destination() == ("int", 1)
    assert _sources(i) == (("int", 2), ("int", 3))


def test_zero_register_creates_no_deps():
    i = Instruction(Opcode.ADD, rd=0, rs1=0, rs2=3)
    assert i.destination() is None
    assert _sources(i) == (("int", 3),)


def test_fp_instruction_register_classes():
    i = Instruction(Opcode.FADD, rd=1, rs1=2, rs2=3)
    assert i.destination() == ("fp", 1)
    assert _sources(i) == (("fp", 2), ("fp", 3))


def test_fp_reg_zero_is_a_real_register():
    """f0 is NOT hard-wired: fp deps on index 0 are real."""
    i = Instruction(Opcode.FADD, rd=0, rs1=0, rs2=0)
    assert i.destination() == ("fp", 0)
    assert _sources(i) == (("fp", 0), ("fp", 0))


def test_mixed_class_instruction():
    i = Instruction(Opcode.FCVTSW, rd=1, rs1=2)  # fp <- int
    assert i.destination() == ("fp", 1)
    assert _sources(i) == (("int", 2),)


def test_store_sources():
    i = Instruction(Opcode.FSW, rs1=2, rs2=3, imm=4)
    assert i.destination() is None
    assert _sources(i) == (("int", 2), ("fp", 3))


def test_control_classification():
    assert Instruction(Opcode.BEQ).is_control
    assert Instruction(Opcode.JAL).is_control
    assert Instruction(Opcode.HALT).is_control and Instruction(Opcode.HALT).is_halt
    assert not Instruction(Opcode.LW).is_control


def test_frozen():
    i = Instruction(Opcode.ADD)
    with pytest.raises(AttributeError):
        i.rd = 5  # type: ignore[misc]


def test_str_roundtrips_through_disassembler():
    i = Instruction(Opcode.ADDI, rd=5, rs1=6, imm=-3)
    assert str(i) == "addi x5, x6, -3"
