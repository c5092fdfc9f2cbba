"""Every refusal of the assembler, encoder and decoder, with its exact text.

One malformed source per ``raise AssemblerError`` site in
:mod:`repro.isa.assembler` (and a few per site where several inputs reach
it), each with its message and 1-based line number.  The fuzz shrinker
(:func:`repro.verify.shrink._try_assemble`) reads any
:class:`~repro.errors.ReproError` as "this candidate does not assemble",
so a refusal that moves, appears or disappears changes what a shrink
keeps; these tables hold every path where it is.
"""

import pytest

from repro.errors import AssemblerError, DisassemblerError, EncodingError
from repro.isa.assembler import assemble
from repro.isa.encoding import decode, encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode

_BIG_DATA = ".data\nbig: .space 40000\ntail: .word 1\n.text\n"

#: (source, message, line) of every assembler refusal.
ASSEMBLER_ERRORS = [
    # _parse_int
    ("addi x1, x0, 1z\n",
     "not an integer: '1z'", 1),
    (".data\n.word 1, x\n",
     "not an integer: 'x'", 2),
    (".data\n.space lots\n",
     "not an integer: 'lots'", 2),
    (".data\n.align two\n",
     "not an integer: 'two'", 2),
    ("li x1, buf\n",
     "not an integer: 'buf'", 1),
    ("beq x1, x2, nowhere\nhalt\n",
     "not an integer: 'nowhere'", 1),
    ("jal x1, 1.5\n",
     "not an integer: '1.5'", 1),
    ("lui x1, top\n",
     "not an integer: 'top'", 1),
    (".data\nv: .word 1\n.text\nlw x1, v+zz(x0)\n",
     "not an integer: 'zz'", 4),
    ("lw x1, nowhere+4(x0)\n",
     "not an integer: 'nowhere'", 1),
    # _parse_mem_operand
    ("lw x1, 4\n",
     "expected imm(base) operand, got '4'", 1),
    ("sw x1, 4(x2\n",
     "expected imm(base) operand, got '4(x2'", 1),
    ("lw x1, 0(f2)\n",
     "memory base must be an integer register: '0(f2)'", 1),
    ("lw x1, 0(q7)\n",
     "not a register: 'q7'", 1),
    ("sw x1, 0(x32)\n",
     "not a register: 'x32'", 1),
    # labels
    ("1bad: halt\n",
     "bad label '1bad'", 1),
    ("a b: halt\n",
     "unknown mnemonic 'a'", 1),
    ("a: halt\na: halt\n",
     "duplicate label 'a'", 2),
    (".data\nv: .word 1\n.text\nv: halt\n",
     "duplicate label 'v'", 4),
    ("x: y: x: halt\n",
     "duplicate label 'x'", 1),
    # sections and directives
    (".data\nadd x1, x2, x3\n",
     'instructions are only allowed in .text', 2),
    (".data\n.float 1.0, abc\n",
     "not a float: 'abc'", 2),
    (".data\n.align 0\n",
     '.align boundary must be positive', 2),
    (".data\n.align -4\n",
     '.align boundary must be positive', 2),
    (".globl main\nhalt\n",
     "unknown directive '.globl'", 1),
    (".word 1\n",
     'data directive outside .data section', 1),
    (".float 1.0\n",
     'data directive outside .data section', 1),
    (".space 4\n",
     'data directive outside .data section', 1),
    (".align 4\n",
     'data directive outside .data section', 1),
    # mnemonics and arity
    ("frob x1, x2\n",
     "unknown mnemonic 'frob'", 1),
    ("halt\n\n  FROB x1\n",
     "unknown mnemonic 'frob'", 3),
    ("li x1\n",
     'li takes rd, imm', 1),
    ("li x1, 2, 3\n",
     'li takes rd, imm', 1),
    ("add x1, x2\n",
     'add takes 3 operand(s), got 2', 1),
    ("fabs f1, f2, f3\n",
     'fabs takes 2 operand(s), got 3', 1),
    ("halt x0\n",
     'halt takes 0 operand(s), got 1', 1),
    ("lw x1\n",
     'lw takes 2 operand(s), got 1', 1),
    ("lui x1, 2, 3\n",
     'lui takes 2 operand(s), got 3', 1),
    ("addi x1, x2\n",
     'addi takes 3 operand(s), got 2', 1),
    ("sw x1\n",
     'sw takes 2 operand(s), got 1', 1),
    ("beq x1, x2\n",
     'beq takes 3 operand(s), got 2', 1),
    ("jal x1\n",
     'jal takes 2 operand(s), got 1', 1),
    ("nop x1\n",
     'nop takes 0 operand(s), got 1', 1),
    ("mv x1\n",
     'mv takes 2 operand(s), got 1', 1),
    ("not x1\n",
     'not takes 2 operand(s), got 1', 1),
    ("neg x1, x2, x3\n",
     'neg takes 2 operand(s), got 3', 1),
    ("la x1\n",
     'la takes 2 operand(s), got 1', 1),
    ("j\n",
     'j takes 1 operand(s), got 0', 1),
    ("call a, b\n",
     'call takes 1 operand(s), got 2', 1),
    ("ret x1\n",
     'ret takes 0 operand(s), got 1', 1),
    ("bgt x1, x2\n",
     'bgt takes 3 operand(s), got 2', 1),
    # registers
    ("add x1, x2, q3\n",
     "not a register: 'q3'", 1),
    ("add x1, x2, x32\n",
     "not a register: 'x32'", 1),
    ("add x1, x2, f3\n",
     "expected int register, got 'f3'", 1),
    ("fadd f1, x2, f3\n",
     "expected fp register, got 'x2'", 1),
    ("feq f1, f2, f3\n",
     "expected int register, got 'f1'", 1),
    ("flw x1, 0(x2)\n",
     "expected fp register, got 'x1'", 1),
    ("fsw x1, 0(x2)\n",
     "expected fp register, got 'x1'", 1),
    ("beq f1, x2, 0\n",
     "expected int register, got 'f1'", 1),
    ("jal f1, 0\n",
     "expected int register, got 'f1'", 1),
    ("mv f1, x2\n",
     "expected int register, got 'f1'", 1),
    ("bleu x1, f2, 0\n",
     "expected int register, got 'f2'", 1),
    ("li sp2, 5\n",
     "not a register: 'sp2'", 1),
    # the first refusal of a line with several faults
    ("add q1, x2\n",
     'add takes 3 operand(s), got 2', 1),
    ("lw q1, 4\n",
     "not a register: 'q1'", 1),
    ("sw f1, 4\n",
     "expected int register, got 'f1'", 1),
    ("lw x1, 4(f2)\n",
     "memory base must be an integer register: '4(f2)'", 1),
    ("bgt f1, q2, 0\n",
     "not a register: 'q2'", 1),
    ("not q1, f2\n",
     "not a register: 'q1'", 1),
    ("li f1, 99999999999\n",
     "expected int register, got 'f1'", 1),
    (": halt\n",
     "bad label ''", 1),
    ("la x1, nowhere\n",
     "not an integer: 'nowhere'", 1),
    # la and li ranges
    (_BIG_DATA + "la x1, tail\nhalt\n",
     'la address 40000 exceeds the 15-bit immediate', 5),
    ("li x1, 1073741824\n",
     'li constant 1073741824 outside supported range [-16384, 1073741823]', 1),
    ("li x1, -16385\n",
     'li constant -16385 outside supported range [-16384, 1073741823]', 1),
    # data directives whose value does not fit
    (".data\n.space -1\n",
     '.space size must not be negative', 2),
    (".data\nv: .float 1.0, 1e39\n",
     "float out of single-precision range: '1e39'", 2),
]


@pytest.mark.parametrize(
    "source, message, line", ASSEMBLER_ERRORS,
    ids=[f"{i}" for i in range(len(ASSEMBLER_ERRORS))],
)
def test_assembler_refusal(source, message, line):
    with pytest.raises(AssemblerError) as info:
        assemble(source)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


#: sources the assembler accepts in a non-canonical spelling, each with
#: its canonical spelling: upper case, padded and zero-padded register
#: numbers, ABI aliases, tabs, comments and label arithmetic with spaces.
ACCEPTED_SPELLINGS = [
    ("ADD X1, x2 ,X3\n", "add x1, x2, x3\n"),
    ("add\tx01,\tx002, x3\n", "add x1, x2, x3\n"),
    ("addi sp, zero, 4\nmv ra, sp\n", "addi x2, x0, 4\naddi x1, x2, 0\n"),
    ("Lw x1, 8( x2 )\n", "lw x1, 8(x2)\n"),
    ("fadd F1, f02, f3 # sum\n", "fadd f1, f2, f3\n"),
    (".data\nv: .word 1, 2\n.text\nlw x1, v + 4(x0) ; second\n",
     ".data\nv: .word 1, 2\n.text\nlw x1, 4(x0)\n"),
    ("a:b: addi x1, x0, a - 1\nj b\n", "addi x1, x0, -1\njal x0, -1\n"),
]


@pytest.mark.parametrize("source, canonical", ACCEPTED_SPELLINGS)
def test_accepted_spelling(source, canonical):
    assert assemble(source).words == assemble(canonical).words


@pytest.mark.parametrize("fields, message", [
    ({"rd": 32}, "rd out of range: 32"),
    ({"rs1": -1}, "rs1 out of range: -1"),
    ({"rs2": 40}, "rs2 out of range: 40"),
    ({"rd": 40, "rs1": -1, "rs2": 99}, "rd out of range: 40"),
    ({"rs1": 32, "rs2": 32}, "rs1 out of range: 32"),
])
def test_instruction_register_range(fields, message):
    with pytest.raises(ValueError) as info:
        Instruction(Opcode.ADD, **fields)
    assert str(info.value) == message


@pytest.mark.parametrize("instr, message", [
    (Instruction(Opcode.ADD, imm=1), "immediate 1 out of range [0, 0] for add"),
    (Instruction(Opcode.HALT, imm=-1), "immediate -1 out of range [0, 0] for halt"),
    (Instruction(Opcode.ADDI, imm=16384),
     "immediate 16384 out of range [-16384, 16383] for addi"),
    (Instruction(Opcode.SW, imm=-16385),
     "immediate -16385 out of range [-16384, 16383] for sw"),
    (Instruction(Opcode.BEQ, imm=16384),
     "immediate 16384 out of range [-16384, 16383] for beq"),
    (Instruction(Opcode.JAL, imm=-(1 << 19) - 1),
     "immediate -524289 out of range [-524288, 524287] for jal"),
])
def test_encoding_refusal(instr, message):
    with pytest.raises(EncodingError) as info:
        encode(instr)
    assert str(info.value) == message


def test_out_of_range_immediate_assembles_and_fails_to_encode():
    program = assemble("addi x1, x0, 99999\n")
    with pytest.raises(EncodingError) as info:
        program.words
    assert str(info.value) == "immediate 99999 out of range [-16384, 16383] for addi"


@pytest.mark.parametrize("word, message", [
    (-1, "not a 32-bit word: -0x1"),
    (1 << 32, "not a 32-bit word: 0x100000000"),
    (0x7F << 25, "unknown opcode 0x7f in word 0xfe000000"),
    (0, "unknown opcode 0x00 in word 0x00000000"),
])
def test_decoding_refusal(word, message):
    with pytest.raises(DisassemblerError) as info:
        decode(word)
    assert str(info.value) == message
