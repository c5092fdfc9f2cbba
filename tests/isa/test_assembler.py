"""Tests for the two-pass assembler."""

import struct

import pytest

from repro.errors import AssemblerError
from repro.isa.assembler import assemble
from repro.isa.opcodes import Opcode


class TestBasic:
    def test_simple_program(self):
        p = assemble("add x1, x2, x3\nhalt\n")
        assert len(p) == 2
        assert p[0].opcode is Opcode.ADD
        assert (p[0].rd, p[0].rs1, p[0].rs2) == (1, 2, 3)
        assert p[1].opcode is Opcode.HALT

    def test_comments_and_blank_lines(self):
        p = assemble(
            """
            # full-line comment
            add x1, x2, x3   # trailing comment
            ; semicolon comment
            sub x4, x5, x6   ; another
            """
        )
        assert len(p) == 2

    def test_immediates(self):
        p = assemble("addi x1, x0, -42\n")
        assert p[0].imm == -42

    def test_hex_immediates(self):
        p = assemble("addi x1, x0, 0xff\n")
        assert p[0].imm == 255

    def test_memory_operands(self):
        p = assemble("lw x1, 8(x2)\nsw x3, -4(x4)\n")
        assert (p[0].rs1, p[0].imm) == (2, 8)
        assert (p[1].rs1, p[1].rs2, p[1].imm) == (4, 3, -4)

    def test_fp_instructions(self):
        p = assemble("fadd f1, f2, f3\nflw f4, 0(x5)\nfsw f4, 4(x5)\n")
        assert p[0].rd == 1 and p[1].rd == 4
        assert p[2].rs2 == 4


class TestLabels:
    def test_branch_to_label(self):
        p = assemble(
            """
            loop: addi x1, x1, 1
                  blt x1, x2, loop
                  halt
            """
        )
        assert p[1].imm == -1  # branch at word 1 targets word 0

    def test_forward_reference(self):
        p = assemble(
            """
            beq x0, x0, done
            addi x1, x1, 1
            done: halt
            """
        )
        assert p[0].imm == 2

    def test_jal_to_label(self):
        p = assemble("j end\nnop\nend: halt\n")
        assert p[0].opcode is Opcode.JAL and p[0].imm == 2

    def test_label_on_own_line(self):
        p = assemble("start:\n  addi x1, x0, 1\n  j start\n")
        assert p[1].imm == -1

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("a: nop\na: nop\n")

    def test_entry_label(self):
        p = assemble("nop\nmain: halt\n")
        assert p.entry() == 1
        assert assemble("nop\n").entry() == 0


class TestDataSection:
    def test_words_and_labels(self):
        p = assemble(
            """
            .data
            vec: .word 1, 2, 3
            tail: .word -1
            .text
            la x1, vec
            lw x2, tail(x0)
            halt
            """
        )
        assert p.data_labels["vec"] == 0
        assert p.data_labels["tail"] == 12
        assert struct.unpack("<3i", bytes(p.data[:12])) == (1, 2, 3)
        assert struct.unpack("<i", bytes(p.data[12:16])) == (-1,)
        assert p[0].imm == 0  # la resolves to the data address
        assert p[1].imm == 12

    def test_float_directive(self):
        p = assemble(".data\nc: .float 0.5, 2.0\n.text\nhalt\n")
        assert struct.unpack("<2f", bytes(p.data)) == (0.5, 2.0)

    def test_space_and_align(self):
        p = assemble(".data\n.space 3\n.align 4\nv: .word 9\n.text\nhalt\n")
        assert p.data_labels["v"] == 4

    def test_word_outside_data_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".word 1\n")


class TestPseudoInstructions:
    def test_nop_mv(self):
        p = assemble("nop\nmv x1, x2\n")
        assert p[0].opcode is Opcode.ADDI and p[0].rd == 0
        assert p[1].opcode is Opcode.ADDI and (p[1].rd, p[1].rs1) == (1, 2)

    def test_li_small(self):
        p = assemble("li x1, 100\n")
        assert len(p) == 1
        assert p[0].opcode is Opcode.ADDI and p[0].imm == 100

    def test_li_large_expands_to_lui_ori(self):
        value = 0x12345678 & 0x3FFFFFFF
        p = assemble(f"li x1, {value}\n")
        assert len(p) == 2
        assert p[0].opcode is Opcode.LUI
        assert p[1].opcode is Opcode.ORI
        assert ((p[0].imm & 0x7FFF) << 15) | (p[1].imm & 0x7FFF) == value

    def test_li_large_keeps_labels_aligned(self):
        p = assemble(
            """
            li x1, 1000000
            target: halt
            """
        )
        assert p.labels["target"] == 2

    def test_li_out_of_range(self):
        with pytest.raises(AssemblerError):
            assemble(f"li x1, {1 << 31}\n")

    def test_swapped_branches(self):
        p = assemble("bgt x1, x2, 0\nble x1, x2, 0\n")
        assert p[0].opcode is Opcode.BLT and (p[0].rs1, p[0].rs2) == (2, 1)
        assert p[1].opcode is Opcode.BGE and (p[1].rs1, p[1].rs2) == (2, 1)

    def test_call_ret(self):
        p = assemble("call f\nhalt\nf: ret\n")
        assert p[0].opcode is Opcode.JAL and p[0].rd == 1
        assert p[2].opcode is Opcode.JALR and p[2].rs1 == 1

    def test_not_neg(self):
        p = assemble("not x1, x2\nneg x3, x4\n")
        assert p[0].opcode is Opcode.NOR
        assert p[1].opcode is Opcode.SUB and p[1].rs1 == 0


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("frobnicate x1\n")

    def test_wrong_arity(self):
        with pytest.raises(AssemblerError, match="operand"):
            assemble("add x1, x2\n")

    def test_wrong_register_class(self):
        with pytest.raises(AssemblerError, match="expected"):
            assemble("add x1, f2, x3\n")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("add x1, x2, x99\n")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError, match="line 3"):
            assemble("nop\nnop\nbogus x1\n")

    def test_aliases(self):
        p = assemble("add x1, zero, ra\nmv sp, x1\n")
        assert (p[0].rs1, p[0].rs2) == (0, 1)
        assert p[1].rd == 2


class TestBinaryRoundTrip:
    def test_assemble_encode_decode(self):
        from repro.isa.encoding import decode

        p = assemble(
            """
            main: addi x1, x0, 10
            loop: addi x1, x1, -1
                  bne x1, x0, loop
                  mul x2, x1, x1
                  fadd f1, f2, f3
                  halt
            """
        )
        words = p.words
        assert [decode(w) for w in words] == p.instructions

    def test_fu_histogram(self):
        from collections import Counter

        from repro.isa.futypes import FUType

        p = assemble("add x1, x2, x3\nmul x4, x5, x6\nlw x7, 0(x8)\nhalt\n")
        hist = Counter(instr.fu_type for instr in p.instructions)
        assert hist[FUType.INT_ALU] == 2  # add + halt
        assert hist[FUType.INT_MDU] == 1
        assert hist[FUType.LSU] == 1
