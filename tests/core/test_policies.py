"""Tests for the steering policies and baselines."""

import pytest

from repro.core.baselines import (
    fixed_superscalar,
    oracle_processor,
    policy_catalogue,
    random_processor,
    static_processor,
    steering_processor,
)
from repro.core.params import ProcessorParams
from repro.core.policies import (
    NoSteering,
    OracleSteering,
    PaperSteering,
    RandomSteering,
    StaticConfiguration,
)
from repro.fabric.configuration import (
    CONFIG_FLOATING,
    CONFIG_INTEGER,
    PREDEFINED_CONFIGS,
)
from repro.fabric.fabric import Fabric
from repro.frontend.memory import DataMemory
from repro.isa.futypes import FUType
from repro.sched.ruu import RegisterUpdateUnit
from repro.workloads.kernels import checksum, newton_sqrt, saxpy

_FAST = ProcessorParams(reconfig_latency=2)


class TestNoSteering:
    def test_never_reconfigures(self):
        kernel = checksum(iterations=40)
        result = fixed_superscalar(kernel.program, _FAST).run()
        assert result.reconfigurations == 0

    def test_name(self):
        assert NoSteering().name == "ffu-only"


class TestStaticConfiguration:
    def test_loads_config_then_stops(self):
        kernel = checksum(iterations=200)
        proc = static_processor(kernel.program, CONFIG_INTEGER, _FAST)
        result = proc.run()
        # exactly the 6 units of the integer config were loaded, once
        assert result.reconfigurations == 6
        counts = proc.fabric.rfus.counts()
        assert counts[FUType.INT_ALU] == 4 and counts[FUType.INT_MDU] == 2

    def test_name_includes_config(self):
        assert StaticConfiguration(CONFIG_FLOATING).name == "static-floating"

    def test_mismatched_static_config_never_adapts(self):
        kernel = newton_sqrt(iterations=20)  # FP workload
        proc = static_processor(kernel.program, CONFIG_INTEGER, _FAST)
        proc.run()
        assert proc.fabric.rfus.counts().get(FUType.FP_MDU, 0) == 0


class TestRandomSteering:
    def test_reconfigures_over_time(self):
        kernel = checksum(iterations=500)
        proc = random_processor(kernel.program, _FAST, period=40, seed=1)
        result = proc.run()
        assert result.reconfigurations > 0

    def test_seed_determinism(self):
        kernel = checksum(iterations=200)
        a = random_processor(kernel.program, _FAST, period=30, seed=5).run()
        b = random_processor(kernel.program, _FAST, period=30, seed=5).run()
        assert a.cycles == b.cycles
        assert a.reconfigurations == b.reconfigurations


class TestOracleSteering:
    def test_oracle_steers_toward_future_fp_phase(self):
        kernel = newton_sqrt(iterations=30)
        proc = oracle_processor(kernel.program, _FAST, lookahead=64)
        proc.run()
        # the oracle retargets near the program tail, so check the load
        # history: an FP unit must have been brought in during the run
        loaded = [plan.fu_type for plan in proc.policy.loader.history]
        assert FUType.FP_MDU in loaded or FUType.FP_ALU in loaded

    def test_oracle_requires_trace(self):
        policy = OracleSteering(trace=[], lookahead=8)
        fabric = Fabric(reconfig_latency=1)
        policy.bind(fabric)
        # empty trace: keeps current, no crash
        policy.cycle(RegisterUpdateUnit(fabric, DataMemory(size=64)))


class TestPaperSteeringPolicy:
    def test_describe_mentions_metric(self):
        assert "shift-approximate" in PaperSteering().describe()
        assert "exact" in PaperSteering(use_exact_metric=True).describe()

    def test_exact_metric_name(self):
        assert PaperSteering(use_exact_metric=True).name == "steering-exact"

    def test_steering_beats_ffu_only_on_matched_workload(self):
        """The headline direction: steering adds integer units for an
        integer workload and outperforms the FFU-only baseline."""
        kernel = checksum(iterations=400)
        steer = steering_processor(kernel.program, _FAST).run()
        ffu = fixed_superscalar(kernel.program, _FAST).run()
        assert steer.ipc > ffu.ipc


class TestCatalogue:
    def test_contains_all_policies(self):
        cat = policy_catalogue()
        assert set(cat) == {
            "ffu-only",
            "steering",
            "random",
            "oracle",
            "demand",
            "static-integer",
            "static-memory",
            "static-floating",
        }

    def test_factories_produce_working_processors(self):
        kernel = saxpy(n=6)
        for name, factory in policy_catalogue().items():
            proc = factory(kernel.program, _FAST)
            result = proc.run(max_cycles=100_000)
            assert result.halted, name
            kernel.verify(proc.dmem)


class TestSharedSelectionMemo:
    """Selection units share one memo per process across jobs; a warm memo
    must not change any result."""

    @staticmethod
    def _catalogue(program, params):
        from repro.core.baselines import policy_catalogue

        return [
            make(program, params).run(max_cycles=50_000).to_dict()
            for make in policy_catalogue().values()
        ]

    def test_warm_memo_leaves_results_bit_identical(self):
        from repro.steering.selection import clear_shared_memos
        from repro.workloads.kernels import dot_product, matmul

        program = checksum(iterations=12).program
        params = ProcessorParams(reconfig_latency=4)
        clear_shared_memos()
        cold = self._catalogue(program, params)
        # warm the shared memos with other programs and window sizes
        for other in (dot_product(n=24).program, matmul(n=4).program):
            for window in (7, 11):
                warm_params = ProcessorParams(reconfig_latency=4, window_size=window)
                self._catalogue(other, warm_params)
        try:
            assert self._catalogue(program, params) == cold
        finally:
            clear_shared_memos()
