"""Two-pass assembler for the repro ISA.

Syntax (one instruction or directive per line; ``#`` and ``;`` start
comments)::

    .data
    vec:    .word 1, 2, 3, 4
    scale:  .float 0.5
    buf:    .space 64
    .text
    main:   la   x5, vec
            lw   x6, 0(x5)
            addi x6, x6, 1
            beq  x6, x0, done
            jal  x0, main
    done:   halt

Supported pseudo-instructions: ``nop``, ``mv``, ``li``, ``la``, ``j``,
``call``, ``ret``, ``bgt``, ``ble``, ``bgtu``, ``bleu``, ``not``, ``neg``.
Branch/jump targets may be labels or literal word offsets.

Every run of a program assembles it first (a served job twice), so each
token costs one table lookup: a mnemonic in ``_OPCODES`` (opcode, spec
and operand count, read by both passes), a canonical register (``x5``,
``f3``) in :data:`~repro.isa.registers.REGISTERS`, a label in one symbol
table.  Any other register spelling (``X5``, ``x05``, ``sp``) goes
through :func:`~repro.isa.registers.parse_register`, which accepts and
refuses what it always has.
"""

from __future__ import annotations

import re
import struct

from repro.errors import AssemblerError
from repro.isa.encoding import imm_range
from repro.isa.instruction import Instruction
from repro.isa.opcodes import ALL_SPECS, Format, Opcode, OperandClass
from repro.isa.program import Program
from repro.isa.registers import REGISTERS, parse_register
from repro.utils.bitops import sign_extend

__all__ = ["assemble"]

_R, _I, _S, _B, _J, _N = Format.R, Format.I, Format.S, Format.B, Format.J, Format.N
_INT = OperandClass.INT


def _operand_count(spec) -> int:
    fmt = spec.format
    if fmt is _N:
        return 0
    if fmt is _R:
        return 2 if spec.src2 is OperandClass.NONE else 3
    if fmt is _I:
        return 2 if spec.is_load or spec.mnemonic == "lui" else 3
    return 3 if fmt is _B else 2


#: mnemonic -> (opcode, spec, operand count) of every machine instruction:
#: the one lookup each pass makes per line.
_OPCODES = {
    spec.mnemonic: (Opcode(spec.number), spec, _operand_count(spec))
    for spec in ALL_SPECS
}

#: machine mnemonics whose second operand is ``imm(base)``.
_LOADS = frozenset(spec.mnemonic for spec in ALL_SPECS if spec.is_load)

#: pseudo-instruction -> operand count.
_PSEUDOS = {
    "nop": 0, "mv": 2, "li": 2, "la": 2, "j": 1, "call": 1, "ret": 0,
    "bgt": 3, "ble": 3, "bgtu": 3, "bleu": 3, "not": 2, "neg": 2,
}

_SWAPPED_BRANCHES = {
    "bgt": Opcode.BLT, "ble": Opcode.BGE, "bgtu": Opcode.BLTU, "bleu": Opcode.BGEU,
}

_IMM_LO, _IMM_HI = imm_range(_I)
_LI_MAX = (1 << 30) - 1

#: ``label+imm`` / ``label-imm`` operands.
_LABEL_ARITHMETIC = re.compile(r"([A-Za-z_]\w*)\s*([+-])\s*(\w+)")


def _tokenize_operands(text: str) -> list[str]:
    text = text.strip()
    if not text:
        return []
    return [t.strip() for t in text.split(",")]


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"not an integer: {token!r}", line) from None


def _parse_mem_operand(token: str, line: int) -> tuple[int, str]:
    """Parse ``imm(base)`` -> (base register, imm-or-label text)."""
    if "(" not in token or token[-1] != ")":
        raise AssemblerError(f"expected imm(base) operand, got {token!r}", line)
    imm_part, base_part = token[:-1].split("(", 1)
    # parse_register's ValueError becomes the line's AssemblerError in _expand
    cls, idx = REGISTERS.get(base_part) or parse_register(base_part)
    if cls != "int":
        raise AssemblerError(f"memory base must be an integer register: {token!r}", line)
    return idx, imm_part.strip() or "0"


def _arity_error(mnemonic: str, n: int, ops: list[str], line_no: int) -> AssemblerError:
    return AssemblerError(f"{mnemonic} takes {n} operand(s), got {len(ops)}", line_no)


class _Assembler:
    def __init__(self, source: str) -> None:
        self.source = source
        self.program = Program(source=source)
        # (mnemonic, operand_tokens, line_no) collected in pass 1
        self._pending: list[tuple[str, list[str], int]] = []
        self._section = "text"
        self._data = bytearray()
        # every label, text and data, for operands that take either
        self._symbols: dict[str, int] = {}

    # ------------------------------------------------------------- pass 1
    def first_pass(self) -> None:
        word_index = 0
        pending = self._pending
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            line = raw
            if "#" in line:
                line = line.split("#", 1)[0]
            if ";" in line:
                line = line.split(";", 1)[0]
            line = line.strip()
            if not line:
                continue
            if ":" in line:
                while ":" in line.split()[0]:
                    label, _, line = line.partition(":")
                    label = label.strip()
                    if not label.isidentifier():
                        raise AssemblerError(f"bad label {label!r}", line_no)
                    self._define_label(label, word_index, line_no)
                    line = line.strip()
                    if not line:
                        break
                if not line:
                    continue
            if line[0] == ".":
                self._directive(line, line_no)
                continue
            if self._section != "text":
                raise AssemblerError("instructions are only allowed in .text", line_no)
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            # the line is stripped, so an operand text is never blank
            operands = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []
            if mnemonic == "li":
                if len(operands) != 2:
                    raise AssemblerError("li takes rd, imm", line_no)
                value = _parse_int(operands[1], line_no)
                word_index += 1 if _IMM_LO <= value <= _IMM_HI else 2
            elif mnemonic in _OPCODES or mnemonic in _PSEUDOS:
                # an ``la`` address may not be known yet; the data segment
                # fits in the 15-bit immediate for every workload we ship,
                # so it reserves 1 word and pass 2 checks
                word_index += 1
            else:
                raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_no)
            pending.append((mnemonic, operands, line_no))

    def _define_label(self, label: str, word_index: int, line_no: int) -> None:
        if label in self._symbols:
            raise AssemblerError(f"duplicate label {label!r}", line_no)
        if self._section == "text":
            self.program.labels[label] = self._symbols[label] = word_index
        else:
            self.program.data_labels[label] = self._symbols[label] = len(self._data)

    def _directive(self, line: str, line_no: int) -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        arg = parts[1] if len(parts) > 1 else ""
        if name == ".text":
            self._section = "text"
        elif name == ".data":
            self._section = "data"
        elif name == ".word":
            self._need_data(line_no)
            for tok in _tokenize_operands(arg):
                value = _parse_int(tok, line_no)
                self._data += struct.pack("<I", value & 0xFFFFFFFF)
        elif name == ".float":
            self._need_data(line_no)
            for tok in _tokenize_operands(arg):
                try:
                    value = float(tok)
                except ValueError:
                    raise AssemblerError(f"not a float: {tok!r}", line_no) from None
                try:
                    self._data += struct.pack("<f", value)
                except OverflowError:
                    raise AssemblerError(
                        f"float out of single-precision range: {tok!r}", line_no
                    ) from None
        elif name == ".space":
            self._need_data(line_no)
            size = _parse_int(arg.strip(), line_no)
            if size < 0:
                raise AssemblerError(".space size must not be negative", line_no)
            self._data += bytes(size)
        elif name == ".align":
            self._need_data(line_no)
            boundary = _parse_int(arg.strip(), line_no)
            if boundary <= 0:
                raise AssemblerError(".align boundary must be positive", line_no)
            while len(self._data) % boundary:
                self._data.append(0)
        else:
            raise AssemblerError(f"unknown directive {name!r}", line_no)

    def _need_data(self, line_no: int) -> None:
        if self._section != "data":
            raise AssemblerError("data directive outside .data section", line_no)

    # ------------------------------------------------------------- pass 2
    def second_pass(self) -> None:
        instructions = self.program.instructions
        for mnemonic, operands, line_no in self._pending:
            instructions += self._expand(mnemonic, operands, len(instructions), line_no)
        self.program.data = self._data

    def _resolve_value(self, token: str, line_no: int) -> int:
        """Integer literal, label (data byte address / text word index), or
        label arithmetic of the form ``label+imm`` / ``label-imm``."""
        value = self._symbols.get(token)
        if value is not None:
            return value
        m = _LABEL_ARITHMETIC.fullmatch(token)
        if m:
            base_tok, sign, off_tok = m.groups()
            base = self._symbols.get(base_tok)
            if base is None:
                # an identifier is never an integer: this raises
                base = _parse_int(base_tok, line_no)
            offset = _parse_int(off_tok, line_no)
            return base + offset if sign == "+" else base - offset
        return _parse_int(token, line_no)

    def _branch_offset(self, token: str, pc: int, line_no: int) -> int:
        target = self.program.labels.get(token)
        if target is not None:
            return target - pc
        return _parse_int(token, line_no)

    @staticmethod
    def _reg(token: str, want: OperandClass, line_no: int) -> int:
        reg = REGISTERS.get(token)
        if reg is None:
            try:
                reg = parse_register(token)
            except ValueError as exc:
                raise AssemblerError(str(exc), line_no) from None
        expected = "int" if want is _INT else "fp"
        if reg[0] != expected:
            raise AssemblerError(
                f"expected {expected} register, got {token!r}", line_no
            )
        return reg[1]

    def _expand(
        self, mnemonic: str, ops: list[str], pc: int, line_no: int
    ) -> list[Instruction]:
        entry = _OPCODES.get(mnemonic)
        if entry is None:
            return self._expand_pseudo(mnemonic, ops, pc, line_no)
        opcode, spec, count = entry
        if len(ops) != count:
            raise _arity_error(mnemonic, count, ops, line_no)
        reg = self._reg
        fmt = spec.format
        # Instruction's fields are passed by position: (opcode, rd, rs1, rs2, imm)
        try:
            if fmt is _R:
                return [Instruction(
                    opcode,
                    reg(ops[0], spec.dst, line_no),
                    reg(ops[1], spec.src1, line_no),
                    reg(ops[2], spec.src2, line_no) if count == 3 else 0,
                )]
            if fmt is _I:
                rd = reg(ops[0], spec.dst, line_no)
                if mnemonic in _LOADS:
                    rs1, imm_tok = _parse_mem_operand(ops[1], line_no)
                    return [Instruction(opcode, rd, rs1, 0,
                                        self._resolve_value(imm_tok, line_no))]
                if count == 2:  # lui
                    return [Instruction(opcode, rd, 0, 0, _parse_int(ops[1], line_no))]
                rs1 = reg(ops[1], spec.src1, line_no)
                return [Instruction(opcode, rd, rs1, 0,
                                    self._resolve_value(ops[2], line_no))]
            if fmt is _S:
                rs2 = reg(ops[0], spec.src2, line_no)
                rs1, imm_tok = _parse_mem_operand(ops[1], line_no)
                return [Instruction(opcode, 0, rs1, rs2,
                                    self._resolve_value(imm_tok, line_no))]
            if fmt is _B:
                rs1 = reg(ops[0], _INT, line_no)
                rs2 = reg(ops[1], _INT, line_no)
                return [Instruction(opcode, 0, rs1, rs2,
                                    self._branch_offset(ops[2], pc, line_no))]
            if fmt is _J:
                rd = reg(ops[0], _INT, line_no)
                return [Instruction(opcode, rd, 0, 0,
                                    self._branch_offset(ops[1], pc, line_no))]
            return [Instruction(opcode)]
        except ValueError as exc:
            raise AssemblerError(str(exc), line_no) from None

    def _expand_pseudo(
        self, mnemonic: str, ops: list[str], pc: int, line_no: int
    ) -> list[Instruction]:
        count = _PSEUDOS[mnemonic]
        if len(ops) != count:
            raise _arity_error(mnemonic, count, ops, line_no)
        reg = self._reg
        if mnemonic in ("li", "la"):
            rd = reg(ops[0], _INT, line_no)
            value = self._resolve_value(ops[1], line_no)
            if _IMM_LO <= value <= _IMM_HI:
                return [Instruction(Opcode.ADDI, rd=rd, imm=value)]
            if mnemonic == "la":
                raise AssemblerError(
                    f"la address {value} exceeds the 15-bit immediate", line_no
                )
            if not 0 <= value <= _LI_MAX:
                raise AssemblerError(
                    f"li constant {value} outside supported range "
                    f"[{_IMM_LO}, {_LI_MAX}]", line_no
                )
            # the low chunk is encoded as a signed 15-bit field; ori's
            # semantics re-mask it to 15 unsigned bits, so values with bit
            # 14 set round-trip correctly through the sign-extended form
            return [
                Instruction(Opcode.LUI, rd=rd,
                            imm=sign_extend((value >> 15) & 0x7FFF, 15)),
                Instruction(Opcode.ORI, rd=rd, rs1=rd,
                            imm=sign_extend(value & 0x7FFF, 15)),
            ]
        if mnemonic == "nop":
            return [Instruction(Opcode.ADDI)]
        if mnemonic == "mv":
            return [Instruction(Opcode.ADDI, rd=reg(ops[0], _INT, line_no),
                                rs1=reg(ops[1], _INT, line_no))]
        if mnemonic == "not":
            return [Instruction(Opcode.NOR, rd=reg(ops[0], _INT, line_no),
                                rs1=reg(ops[1], _INT, line_no),
                                rs2=reg(ops[1], _INT, line_no))]
        if mnemonic == "neg":
            return [Instruction(Opcode.SUB, rd=reg(ops[0], _INT, line_no),
                                rs1=0, rs2=reg(ops[1], _INT, line_no))]
        if mnemonic == "j":
            return [Instruction(Opcode.JAL, rd=0,
                                imm=self._branch_offset(ops[0], pc, line_no))]
        if mnemonic == "call":
            return [Instruction(Opcode.JAL, rd=1,
                                imm=self._branch_offset(ops[0], pc, line_no))]
        if mnemonic == "ret":
            return [Instruction(Opcode.JALR, rd=0, rs1=1)]
        # bgt, ble, bgtu, bleu: the swapped-operand branch
        return [Instruction(_SWAPPED_BRANCHES[mnemonic],
                            rs1=reg(ops[1], _INT, line_no),
                            rs2=reg(ops[0], _INT, line_no),
                            imm=self._branch_offset(ops[2], pc, line_no))]


def assemble(source: str) -> Program:
    """Assemble source text into a :class:`~repro.isa.program.Program`."""
    asm = _Assembler(source)
    asm.first_pass()
    asm.second_pass()
    return asm.program
