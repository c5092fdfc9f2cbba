"""Tests for the synthetic workload generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import run_reference
from repro.errors import WorkloadError
from repro.isa.futypes import FU_TYPES, FUType
from repro.workloads.synthetic import (
    BALANCED_MIX,
    FP_MIX,
    INT_MIX,
    MEM_MIX,
    MixSpec,
    synthetic_program,
)


class TestMixSpec:
    def test_normalised_sums_to_one(self):
        for mix in (INT_MIX, MEM_MIX, FP_MIX, BALANCED_MIX):
            assert sum(mix.normalised().values()) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            MixSpec("bad", {})
        with pytest.raises(WorkloadError):
            MixSpec("bad", {FUType.INT_ALU: -1.0})
        with pytest.raises(WorkloadError):
            MixSpec("bad", {FUType.INT_ALU: 0.0})
        with pytest.raises(WorkloadError):
            MixSpec("bad", {FUType.INT_ALU: 1.0}, dep_density=2.0)


class TestGeneration:
    def test_deterministic_by_seed(self):
        a = synthetic_program(INT_MIX, seed=7, iterations=3)
        b = synthetic_program(INT_MIX, seed=7, iterations=3)
        c = synthetic_program(INT_MIX, seed=8, iterations=3)
        assert a.words == b.words
        assert a.words != c.words

    def test_programs_terminate(self):
        for mix in (INT_MIX, MEM_MIX, FP_MIX, BALANCED_MIX):
            ref = run_reference(synthetic_program(mix, iterations=5, seed=0))
            assert ref.halted

    def test_mix_is_respected_in_body(self):
        """The dynamic mix should be dominated by the requested types."""
        program = synthetic_program(FP_MIX, body_len=64, iterations=2, seed=3)
        ref = run_reference(program)
        fp_ops = sum(
            1 for t in ref.trace if t in (FUType.FP_ALU, FUType.FP_MDU)
        )
        # prologue + loop control dilute, but FP should still dominate
        assert fp_ops / len(ref.trace) > 0.4

    def test_int_mix_has_no_fp(self):
        program = synthetic_program(INT_MIX, body_len=32, iterations=2, seed=1)
        ref = run_reference(program)
        body_fp = sum(1 for t in ref.trace if t in (FUType.FP_ALU, FUType.FP_MDU))
        # only the prologue flw warm-up touches FP paths (via LSU, not FP units)
        assert body_fp == 0

    def test_validation_of_parameters(self):
        with pytest.raises(WorkloadError):
            synthetic_program(INT_MIX, iterations=0)
        with pytest.raises(WorkloadError):
            synthetic_program(INT_MIX, body_len=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 40))
    def test_any_seed_produces_runnable_program(self, seed, body_len):
        program = synthetic_program(BALANCED_MIX, body_len=body_len,
                                    iterations=2, seed=seed)
        ref = run_reference(program, max_instructions=100_000)
        assert ref.halted
