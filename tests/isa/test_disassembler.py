"""Tests for the disassembler, including assemble->disassemble->assemble."""

from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble, format_instruction
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


class TestFormat:
    def test_r_type(self):
        assert format_instruction(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)) == "add x1, x2, x3"

    def test_two_operand_r_type(self):
        assert format_instruction(Instruction(Opcode.FABS, rd=1, rs1=2)) == "fabs f1, f2"

    def test_i_type(self):
        assert format_instruction(Instruction(Opcode.ADDI, rd=1, rs1=2, imm=-7)) == "addi x1, x2, -7"

    def test_load_store_syntax(self):
        assert format_instruction(Instruction(Opcode.LW, rd=1, rs1=2, imm=8)) == "lw x1, 8(x2)"
        assert format_instruction(Instruction(Opcode.SW, rs1=2, rs2=3, imm=-4)) == "sw x3, -4(x2)"
        assert format_instruction(Instruction(Opcode.FLW, rd=1, rs1=2, imm=0)) == "flw f1, 0(x2)"
        assert format_instruction(Instruction(Opcode.FSW, rs1=2, rs2=3, imm=0)) == "fsw f3, 0(x2)"

    def test_branch_and_jump(self):
        assert format_instruction(Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=-3)) == "beq x1, x2, -3"
        assert format_instruction(Instruction(Opcode.JAL, rd=1, imm=5)) == "jal x1, 5"

    def test_lui_and_halt(self):
        assert format_instruction(Instruction(Opcode.LUI, rd=1, imm=9)) == "lui x1, 9"
        assert format_instruction(Instruction(Opcode.HALT)) == "halt"

    def test_fp_compare_mixes_classes(self):
        assert format_instruction(Instruction(Opcode.FLT, rd=1, rs1=2, rs2=3)) == "flt x1, f2, f3"


class TestRoundTrip:
    def test_disassemble_binary(self):
        p = assemble("add x1, x2, x3\nlw x4, 4(x5)\nhalt\n")
        lines = disassemble(p.words)
        assert lines == ["add x1, x2, x3", "lw x4, 4(x5)", "halt"]

    def test_reassembling_disassembly_is_identity(self):
        src = """
            addi x1, x0, 10
            addi x2, x0, 0
            mul x3, x1, x1
            lw x4, 0(x3)
            sw x4, 4(x3)
            fadd f1, f2, f3
            fdiv f4, f5, f6
            beq x1, x2, 2
            jal x1, -3
            halt
        """
        p1 = assemble(src)
        p2 = assemble("\n".join(disassemble(p1.words)))
        assert p1.instructions == p2.instructions
