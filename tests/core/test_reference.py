"""Tests for the functional reference interpreter."""

import pytest

from repro.core.reference import run_reference
from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.isa.futypes import FUType


class TestReference:
    def test_simple_arithmetic(self):
        ref = run_reference(assemble("li x1, 6\nli x2, 7\nmul x3, x1, x2\nhalt\n"))
        assert ref.registers.read("int", 3) == 42
        assert ref.halted

    def test_loop(self):
        ref = run_reference(
            assemble("li x1, 5\nli x2, 0\nloop: add x2, x2, x1\naddi x1, x1, -1\n"
                      "bne x1, x0, loop\nhalt\n")
        )
        assert ref.registers.read("int", 2) == 15

    def test_memory(self):
        ref = run_reference(
            assemble(".data\nv: .word 11\nr: .word 0\n.text\n"
                      "lw x1, v(x0)\naddi x1, x1, 1\nsw x1, r(x0)\nhalt\n")
        )
        assert ref.memory.peek_word(4) == 12

    def test_fp(self):
        ref = run_reference(
            assemble(".data\na: .float 1.5\n.text\n"
                      "flw f1, a(x0)\nfadd f2, f1, f1\nhalt\n")
        )
        assert ref.registers.read("fp", 2) == 3.0

    def test_call_ret(self):
        ref = run_reference(
            assemble("main: call fn\nsw x5, 0(x0)\nhalt\nfn: li x5, 77\nret\n")
        )
        assert ref.memory.peek_word(0) == 77

    def test_trace_records_fu_types(self):
        ref = run_reference(assemble("add x1, x2, x3\nlw x4, 0(x0)\nhalt\n"))
        assert ref.trace == [FUType.INT_ALU, FUType.LSU, FUType.INT_ALU]

    def test_runaway_detected(self):
        with pytest.raises(SimulationError, match="exceeded"):
            run_reference(assemble("loop: j loop\nhalt\n"), max_instructions=100)

    def test_falling_off_program_detected(self):
        with pytest.raises(SimulationError, match="fell off"):
            run_reference(assemble("add x1, x2, x3\n"))

    def test_entry_label_used(self):
        ref = run_reference(
            assemble("li x1, 1\nhalt\nmain: li x1, 2\nhalt\n")
        )
        assert ref.registers.read("int", 1) == 2
