"""Tests for phase-changing workloads."""

import pytest

from repro.core.reference import run_reference
from repro.errors import WorkloadError
from repro.isa.futypes import FUType
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX


class TestPhasedProgram:
    def test_phases_execute_in_order(self):
        program = phased_program([(INT_MIX, 4), (FP_MIX, 4)], body_len=16, seed=0)
        ref = run_reference(program)
        assert ref.halted
        # the FP ops must all come after the last pure-int stretch begins:
        fp_positions = [
            i for i, t in enumerate(ref.trace)
            if t in (FUType.FP_ALU, FUType.FP_MDU)
        ]
        assert fp_positions
        assert min(fp_positions) > len(ref.trace) * 0.3

    def test_phase_lengths_scale_with_iterations(self):
        short = run_reference(phased_program([(INT_MIX, 2)], seed=0)).executed
        long = run_reference(phased_program([(INT_MIX, 8)], seed=0)).executed
        assert long > short

    def test_three_phase_program_runs(self):
        program = phased_program(
            [(INT_MIX, 3), (MEM_MIX, 3), (FP_MIX, 3)], body_len=20, seed=5
        )
        ref = run_reference(program)
        assert ref.halted
        seen = set(ref.trace)
        assert FUType.INT_MDU in seen
        assert FUType.LSU in seen
        assert FUType.FP_MDU in seen

    def test_validation(self):
        with pytest.raises(WorkloadError):
            phased_program([])
        with pytest.raises(WorkloadError):
            phased_program([(INT_MIX, 0)])

    def test_deterministic(self):
        a = phased_program([(INT_MIX, 2), (FP_MIX, 2)], seed=9)
        b = phased_program([(INT_MIX, 2), (FP_MIX, 2)], seed=9)
        assert a.words == b.words
