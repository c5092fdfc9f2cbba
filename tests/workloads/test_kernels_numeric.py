"""Tests for the numeric kernel batch."""

import math

import pytest

from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.core.reference import run_reference
from repro.workloads.kernels_numeric import (
    binary_search,
    gcd,
    horner,
    popcount_soft,
    transpose,
)

_PARAMS = ProcessorParams(reconfig_latency=4)

#: every numeric kernel at its default size.
NUMERIC_KERNELS = [gcd(), popcount_soft(), binary_search(), transpose(), horner()]


@pytest.mark.parametrize("kernel", NUMERIC_KERNELS, ids=lambda k: k.name)
class TestEveryNumericKernel:
    def test_reference_matches_golden(self, kernel):
        ref = run_reference(kernel.program)
        assert ref.halted
        kernel.verify(ref.memory)

    def test_pipeline_matches_golden(self, kernel):
        proc = steering_processor(kernel.program, _PARAMS)
        result = proc.run(max_cycles=300_000)
        assert result.halted
        kernel.verify(proc.dmem)


class TestGcd:
    @pytest.mark.parametrize("a,b", [(1071, 462), (17, 5), (100, 100), (7, 0)])
    def test_values(self, a, b):
        k = gcd(a, b)
        assert k.expected_words["result"] == math.gcd(a, b)
        ref = run_reference(k.program)
        k.verify(ref.memory)


class TestPopcount:
    def test_matches_python_bitcount(self):
        k = popcount_soft(n=8)
        ref = run_reference(k.program)
        k.verify(ref.memory)


class TestBinarySearch:
    def test_finds_every_needle(self):
        for idx in (0, 7, 31, 63):
            k = binary_search(n=64, needle_index=idx)
            ref = run_reference(k.program)
            k.verify(ref.memory)

    def test_branchy(self):
        k = binary_search()
        result = steering_processor(k.program, _PARAMS).run()
        assert result.branch_resolutions > 3


class TestTranspose:
    def test_full_matrix(self):
        k = transpose(n=5)
        ref = run_reference(k.program)
        base = k.program.data_labels["mt"]
        for i in range(5):
            for j in range(5):
                got = ref.memory.peek_word(base + 4 * (i * 5 + j))
                assert got == k._expected_t[i][j]


class TestHorner:
    def test_constant_polynomial(self):
        k = horner(coeffs=[3.5], x=100.0)
        assert k.expected_floats["result"] == 3.5
        # a degree-0 polynomial never enters the loop
        ref = run_reference(k.program)
        k.verify(ref.memory)

    def test_linear(self):
        k = horner(coeffs=[2.0, 1.0], x=3.0)
        assert k.expected_floats["result"] == 7.0
        ref = run_reference(k.program)
        k.verify(ref.memory)
