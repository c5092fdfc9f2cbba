"""End-to-end integration: every kernel on every policy, determinism, and
behavioural cross-checks between subsystems."""

import pytest

from repro.core.baselines import policy_catalogue, steering_processor
from repro.core.params import ProcessorParams
from repro.core.reference import run_reference
from repro.isa.futypes import FUType
from repro.workloads.kernels import all_kernels, checksum, saxpy

_PARAMS = ProcessorParams(reconfig_latency=4)


class TestKernelPolicyMatrix:
    """Every kernel x every policy halts and verifies (the full matrix is
    8 x 7 runs; keep sizes small)."""

    @pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.name)
    def test_kernel_under_all_policies(self, kernel):
        for name, factory in policy_catalogue().items():
            proc = factory(kernel.program, _PARAMS)
            result = proc.run(max_cycles=300_000)
            assert result.halted, f"{kernel.name} under {name}"
            kernel.verify(proc.dmem)


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        kernel = saxpy(n=24)
        a = steering_processor(kernel.program, _PARAMS).run()
        b = steering_processor(kernel.program, _PARAMS).run()
        assert a.cycles == b.cycles
        assert a.retired == b.retired
        assert a.reconfigurations == b.reconfigurations
        assert a.steering_selections == b.steering_selections


class TestCrossChecks:
    def test_retired_count_equals_reference_dynamic_count(self):
        kernel = checksum(iterations=60)
        result = steering_processor(kernel.program, _PARAMS).run()
        ref = run_reference(kernel.program)
        assert result.retired == ref.executed

    def test_busy_cycles_account_for_latency(self):
        """Busy unit-cycles per type >= retired ops x latency lower bound."""
        kernel = checksum(iterations=60)
        result = steering_processor(kernel.program, _PARAMS).run()
        # every retired IALU op held a unit for exactly 1 cycle
        assert result.busy_unit_cycles[FUType.INT_ALU] >= result.retired_per_type[
            FUType.INT_ALU
        ]

    def test_reconfig_bus_cycles_consistent(self):
        kernel = saxpy(n=48)
        proc = steering_processor(kernel.program, _PARAMS)
        result = proc.run()
        # every load occupies the bus for latency * slot_cost cycles
        expected = sum(p.latency for p in proc.policy.loader.history)
        assert result.reconfig_bus_cycles <= expected
        assert result.reconfigurations == len(proc.policy.loader.history)

    def test_steering_selection_counts_sum_to_cycles(self):
        kernel = checksum(iterations=60)
        result = steering_processor(kernel.program, _PARAMS).run()
        assert sum(result.steering_selections.values()) == result.cycles

    def test_fabric_slots_never_leak(self):
        """After a full run the allocation vector is still structurally
        valid (spans consistent) whatever happened during steering."""
        kernel = saxpy(n=48)
        proc = steering_processor(kernel.program, _PARAMS)
        proc.run()
        vec = proc.fabric.rfus.allocation_vector()  # validates on build
        assert len(vec) == 8
