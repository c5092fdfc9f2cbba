"""Tests for the cycle-level processor, headed by the golden-model
equivalence property: for every kernel and every policy, the pipelined
out-of-order reconfigurable processor must commit exactly the architectural
state the functional reference computes."""

import pytest

from repro.core.baselines import (
    fixed_superscalar,
    oracle_processor,
    random_processor,
    static_processor,
    steering_processor,
)
from repro.core.params import ProcessorParams
from repro.core.processor import Processor
from repro.core.reference import run_reference
from repro.errors import SimulationError
from repro.fabric.configuration import CONFIG_FLOATING, CONFIG_INTEGER
from repro.isa.assembler import assemble
from repro.workloads.kernels import all_kernels, checksum, saxpy, sum_reduction

_FAST = ProcessorParams(reconfig_latency=4)


def _policies(program):
    return {
        "ffu-only": lambda: fixed_superscalar(program, _FAST),
        "steering": lambda: steering_processor(program, _FAST),
        "static-integer": lambda: static_processor(program, CONFIG_INTEGER, _FAST),
        "random": lambda: random_processor(program, _FAST, period=50),
        "oracle": lambda: oracle_processor(program, _FAST, lookahead=32),
    }


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.name)
def test_steering_processor_matches_golden_model(kernel):
    """The central correctness property (steering policy)."""
    proc = steering_processor(kernel.program, _FAST)
    result = proc.run(max_cycles=200_000)
    assert result.halted, f"{kernel.name} did not halt"
    kernel.verify(proc.dmem)
    ref = run_reference(kernel.program)
    assert result.retired == ref.executed


@pytest.mark.parametrize("policy_name", ["ffu-only", "static-integer", "random", "oracle"])
def test_every_policy_matches_golden_model(policy_name):
    """Architectural state is policy-independent (timing is not)."""
    kernel = saxpy(n=16)
    proc = _policies(kernel.program)[policy_name]()
    result = proc.run(max_cycles=200_000)
    assert result.halted
    kernel.verify(proc.dmem)


class TestBasicExecution:
    def test_empty_loop_program(self):
        program = assemble("li x1, 3\nloop: addi x1, x1, -1\nbne x1, x0, loop\nhalt\n")
        proc = fixed_superscalar(program)
        result = proc.run()
        assert result.halted
        assert proc.ruu.regfile.read("int", 1) == 0

    def test_ipc_positive_and_bounded(self):
        kernel = checksum(iterations=50)
        result = steering_processor(kernel.program, _FAST).run()
        assert 0 < result.ipc <= 4.0  # retire width bounds IPC

    def test_max_cycles_cutoff(self):
        program = assemble("loop: j loop\nhalt\n")
        result = fixed_superscalar(program).run(max_cycles=100)
        assert not result.halted
        assert result.cycles == 100

    def test_invalid_max_cycles(self):
        program = assemble("halt\n")
        with pytest.raises(SimulationError):
            fixed_superscalar(program).run(max_cycles=0)

    def test_step_is_idempotent_after_halt(self):
        program = assemble("halt\n")
        proc = fixed_superscalar(program)
        proc.run()
        cycles = proc.cycle_count
        result = proc.run(max_cycles=10)
        assert result.cycles == cycles  # no further progress


class TestBranchHandling:
    def test_mispredict_recovery_correct(self):
        # alternating branch pattern defeats the 2-bit counter sometimes,
        # but architectural results must stay exact
        program = assemble(
            """
            li   x1, 20
            li   x2, 0
            li   x3, 0
        loop:
            andi x4, x1, 1
            beq  x4, x0, even
            addi x2, x2, 1
            j    next
        even:
            addi x3, x3, 1
        next:
            addi x1, x1, -1
            bne  x1, x0, loop
            halt
            """
        )
        proc = steering_processor(program, _FAST)
        result = proc.run()
        assert result.halted
        assert proc.ruu.regfile.read("int", 2) == 10  # odd counts
        assert proc.ruu.regfile.read("int", 3) == 10  # even counts
        assert result.mispredictions > 0
        assert result.flushes > 0

    def test_branch_stats_consistent(self):
        kernel = sum_reduction(n=32)
        result = steering_processor(kernel.program, _FAST).run()
        assert result.branch_resolutions >= 31
        assert 0 <= result.branch_accuracy <= 1.0

    def test_indirect_jump_via_btb(self):
        program = assemble(
            """
            main: li   x5, 0
                  li   x6, 3
            loop: call fn
                  addi x6, x6, -1
                  bne  x6, x0, loop
                  halt
            fn:   addi x5, x5, 1
                  ret
            """
        )
        proc = steering_processor(program, _FAST)
        result = proc.run()
        assert result.halted
        assert proc.ruu.regfile.read("int", 5) == 3


class TestStats:
    def test_retired_mix_matches_reference_trace(self):
        kernel = saxpy(n=8)
        proc = steering_processor(kernel.program, _FAST)
        result = proc.run()
        ref = run_reference(kernel.program)
        mix = {}
        for t in ref.trace:
            mix[t] = mix.get(t, 0) + 1
        for t, n in mix.items():
            assert result.retired_per_type.get(t, 0) == n

    def test_summary_renders(self):
        kernel = checksum(iterations=10)
        result = steering_processor(kernel.program, _FAST).run()
        text = result.summary()
        assert "IPC" in text and "steering picks" in text

    def test_module_inventory_covers_fig1(self):
        proc = steering_processor(assemble("halt\n"), _FAST)
        inventory = proc.module_inventory()
        for module in (
            "instruction memory",
            "data memory",
            "fetch unit",
            "trace cache",
            "instruction decoder",
            "register update unit",
            "register files",
            "wake-up array",
            "fixed functional units",
            "reconfigurable slots",
            "configuration management",
        ):
            assert module in inventory

    def test_utilisation_bounded(self):
        kernel = checksum(iterations=30)
        result = steering_processor(kernel.program, _FAST).run()
        from repro.isa.futypes import FU_TYPES

        for t in FU_TYPES:
            assert 0.0 <= result.utilisation(t) <= 1.0


class TestTraceCacheOption:
    def test_disabled_trace_cache(self):
        kernel = checksum(iterations=30)
        params = ProcessorParams(reconfig_latency=4, use_trace_cache=False)
        proc = steering_processor(kernel.program, params)
        result = proc.run()
        assert result.halted
        assert result.trace_cache_hits == 0
        kernel.verify(proc.dmem)

    def test_trace_cache_improves_tight_loop_fetch(self):
        kernel = checksum(iterations=100)
        with_tc = steering_processor(
            kernel.program, ProcessorParams(reconfig_latency=4)
        ).run()
        without_tc = steering_processor(
            kernel.program,
            ProcessorParams(reconfig_latency=4, use_trace_cache=False),
        ).run()
        assert with_tc.ipc >= without_tc.ipc
