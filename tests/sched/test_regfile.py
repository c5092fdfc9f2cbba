"""Tests for the architectural register file."""

import pytest

from repro.errors import SchedulerError
from repro.sched.regfile import RegisterFile


class TestRegisterFile:
    def test_initial_state_zero(self):
        rf = RegisterFile()
        assert rf.read("int", 5) == 0
        assert rf.read("fp", 5) == 0.0

    def test_int_write_read(self):
        rf = RegisterFile()
        rf.write("int", 3, 42)
        assert rf.read("int", 3) == 42

    def test_x0_hardwired(self):
        rf = RegisterFile()
        rf.write("int", 0, 99)
        assert rf.read("int", 0) == 0

    def test_int_values_wrap_to_u32(self):
        rf = RegisterFile()
        rf.write("int", 1, -1)
        assert rf.read("int", 1) == 0xFFFFFFFF

    def test_fp_write_read(self):
        rf = RegisterFile()
        rf.write("fp", 0, 2.5)  # f0 is a real register
        assert rf.read("fp", 0) == 2.5

    def test_unknown_class_rejected(self):
        rf = RegisterFile()
        with pytest.raises(SchedulerError):
            rf.read("vec", 0)
        with pytest.raises(SchedulerError):
            rf.write("vec", 0, 1)

    def test_snapshot_is_copy(self):
        rf = RegisterFile()
        snap = rf.snapshot()
        rf.write("int", 1, 7)
        assert snap["int"][1] == 0
        assert rf.snapshot()["int"][1] == 7
