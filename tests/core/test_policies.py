"""Tests for the steering policies and baselines."""

import pickle
import random

import pytest

from repro.core import baselines
from repro.core.baselines import (
    demand_processor,
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
from repro.errors import ConfigurationError, SimulationError
from repro.fabric.configuration import (
    CONFIG_FLOATING,
    CONFIG_INTEGER,
    PREDEFINED_CONFIGS,
)
from repro.fabric.fabric import Fabric
from repro.frontend.memory import DataMemory
from repro.isa.futypes import FU_TYPES, FUType
from repro.sched.ruu import RegisterUpdateUnit
from repro.workloads.kernels import checksum, newton_sqrt, saxpy
from tests.fabric.slot_counts import rfu_loaded

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
        counts = rfu_loaded(proc.fabric.rfus)
        assert counts[FUType.INT_ALU] == 4 and counts[FUType.INT_MDU] == 2

    def test_name_includes_config(self):
        assert StaticConfiguration(CONFIG_FLOATING).name == "static-floating"

    def test_mismatched_static_config_never_adapts(self):
        kernel = newton_sqrt(iterations=20)  # FP workload
        proc = static_processor(kernel.program, CONFIG_INTEGER, _FAST)
        proc.run()
        assert rfu_loaded(proc.fabric.rfus).get(FUType.FP_MDU, 0) == 0


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

    @pytest.mark.parametrize("period", [0, -1])
    def test_period_below_one_is_refused(self, period):
        with pytest.raises(ConfigurationError, match="period must be at least 1"):
            RandomSteering(period=period)


class TestOracleSteering:
    @pytest.mark.parametrize("lookahead", [0, -1])
    def test_lookahead_below_one_is_refused(self, lookahead):
        with pytest.raises(
            ConfigurationError, match="lookahead must be at least 1"
        ):
            OracleSteering(trace=[], lookahead=lookahead)

    def test_oracle_steers_toward_future_fp_phase(self):
        kernel = newton_sqrt(iterations=30)
        proc = oracle_processor(kernel.program, _FAST, lookahead=64)
        proc.run()
        # the oracle retargets near the program tail, so check the load
        # history: an FP unit must have been brought in during the run
        loaded = [plan.fu_type for plan in proc.policy.loader.history]
        assert FUType.FP_MDU in loaded or FUType.FP_ALU in loaded

    def test_reference_runs_once_per_program(self, monkeypatch):
        runs = []
        real = baselines.run_reference

        def counted(program, **kwargs):
            runs.append(kwargs["max_instructions"])
            return real(program, **kwargs)

        monkeypatch.setattr(baselines, "run_reference", counted)
        program = checksum(iterations=20).program
        first = oracle_processor(program, _FAST).policy.trace
        executed = len(first)
        assert oracle_processor(program, _FAST).policy.trace == first
        assert runs == [1_000_000]
        # the halted run of `executed` instructions answers any budget at
        # least that long ...
        oracle_processor(program, _FAST, max_instructions=executed)
        assert runs == [1_000_000]
        # ... and a smaller one still fails as the reference run does
        with pytest.raises(SimulationError, match="exceeded"):
            oracle_processor(program, _FAST, max_instructions=executed - 1)
        assert runs == [1_000_000, executed - 1]
        assert program.reference_trace == first  # the memo survives the failure
        # the memo is derived state: a pickled program leaves it behind
        copy = pickle.loads(pickle.dumps(program))
        assert "reference_trace" not in copy.__dict__
        assert copy.reference_trace is None

    def test_oracle_requires_trace(self):
        policy = OracleSteering(trace=[], lookahead=8)
        fabric = Fabric(reconfig_latency=1)
        policy.bind(fabric, ProcessorParams())
        # empty trace: keeps current, no crash
        policy.cycle(RegisterUpdateUnit(fabric, DataMemory(size=64)))


class TestOracleWindow:
    """The sliding window equals a direct recount at every retire point."""

    @staticmethod
    def _recount(trace, retired, lookahead):
        counts = [0] * len(FU_TYPES)
        for t in trace[retired : retired + lookahead]:
            counts[FU_TYPES.index(t)] += 1
        return tuple(counts)

    @pytest.mark.parametrize("lookahead", [1, 3, 16, 64])
    def test_window_slides_exactly(self, lookahead):
        rng = random.Random(lookahead)
        trace = [rng.choice(FU_TYPES) for _ in range(150)]
        policy = OracleSteering(trace, lookahead=lookahead)
        retired = 0
        # steps of 0 (no retirement), retire-width steps and jumps past a
        # whole window, through the tail and beyond the trace's end
        while retired <= len(trace) + 8:
            got = policy._window_required(retired)
            assert got == self._recount(trace, retired, lookahead), retired
            retired += rng.choice((0, 1, 2, 4, lookahead + 3))

    def test_every_retire_point_through_the_tail(self):
        rng = random.Random(7)
        trace = [rng.choice(FU_TYPES) for _ in range(90)]
        policy = OracleSteering(trace, lookahead=64)
        for retired in range(len(trace) + 3):
            assert policy._window_required(retired) == self._recount(trace, retired, 64)

    def test_choice_follows_the_configured_counts(self):
        """With the retire point still, a completed load alone can change
        the best candidate: here the current configuration catches up with
        the floating one and wins the tie, so the target is dropped."""
        policy = OracleSteering([FUType.FP_ALU] * 200, lookahead=64)
        fabric = Fabric(reconfig_latency=1)
        policy.bind(fabric, ProcessorParams())
        ruu = RegisterUpdateUnit(fabric, DataMemory(size=64))
        policy.cycle(ruu)
        assert policy.loader._target is CONFIG_FLOATING
        for _ in range(10):
            fabric.tick()
            policy.cycle(ruu)
        assert rfu_loaded(fabric.rfus) == {FUType.FP_ALU: 1}
        assert policy.loader._target is None

    def test_rebinding_restarts_the_window(self):
        trace = list(FU_TYPES) * 20
        policy = OracleSteering(trace, lookahead=8)
        policy.bind(Fabric(reconfig_latency=1), ProcessorParams())
        policy._window_required(50)
        policy.bind(Fabric(reconfig_latency=1), ProcessorParams())
        assert policy._window_required(3) == self._recount(trace, 3, 8)


class TestPaperSteeringPolicy:
    def test_describe_mentions_metric(self):
        for exact, text in ((False, "shift-approximate"), (True, "exact")):
            policy = PaperSteering()
            policy.bind(Fabric(), ProcessorParams(use_exact_metric=exact))
            assert text in policy.describe()

    def test_exact_metric_name(self):
        policy = PaperSteering()
        policy.bind(Fabric(), ProcessorParams(use_exact_metric=True))
        assert policy.name == "steering-exact"
        policy.bind(Fabric(), ProcessorParams())
        assert policy.name == "steering"

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
    """Selection memos belong to one unit, hence to one job: a process that
    has run other jobs must return the results of a first run."""

    @staticmethod
    def _catalogue(program, params):
        from repro.core.baselines import policy_catalogue

        return [
            make(program, params).run(max_cycles=50_000).to_dict()
            for make in policy_catalogue().values()
        ]

    def test_warm_memo_leaves_results_bit_identical(self):
        from repro.workloads.kernels import dot_product, matmul

        program = checksum(iterations=12).program
        params = ProcessorParams(reconfig_latency=4)
        first = self._catalogue(program, params)
        # run other programs and window sizes in between
        for other in (dot_product(n=24).program, matmul(n=4).program):
            for window in (7, 11):
                other_params = ProcessorParams(reconfig_latency=4, window_size=window)
                self._catalogue(other, other_params)
        assert self._catalogue(program, params) == first


class TestBankAndBudgetFromParams:
    """Every policy scores and synthesizes with the processor's own fixed
    bank (``params.ffu_counts``) and slot budget (``params.n_slots``)."""

    BANK = {FUType.INT_ALU: 1, FUType.INT_MDU: 1, FUType.LSU: 1, FUType.FP_ALU: 1}
    PARAMS = ProcessorParams(ffu_counts=BANK, n_slots=12)

    def test_candidates_score_the_processor_bank(self):
        program = checksum().program
        expected = tuple(
            tuple(cfg.count(t) + self.BANK.get(t, 0) for t in FU_TYPES)
            for cfg in PREDEFINED_CONFIGS
        )
        steering = steering_processor(program, self.PARAMS)
        oracle = oracle_processor(program, self.PARAMS)
        assert steering.fabric.counts_tuple() == (1, 1, 1, 1, 0)
        fp_mdu = FU_TYPES.index(FUType.FP_MDU)
        for avails in (
            steering.policy._unit._config_avails,
            oracle.policy._config_avails,
        ):
            assert avails == expected
            # no candidate scores the fixed FP-MDU this bank lacks
            assert [a[fp_mdu] for a in avails] == [
                cfg.count(FUType.FP_MDU) for cfg in PREDEFINED_CONFIGS
            ]
        assert steering.run().halted and oracle.run().halted

    def test_synthesizer_fills_the_processor_slot_budget(self):
        proc = demand_processor(checksum().program, self.PARAMS)
        synthesizer = proc.policy.synthesizer
        for _ in range(64):
            synthesizer.observe((7,) * len(FU_TYPES))
        target = synthesizer.propose(proc.fabric.counts_tuple())
        assert target is not None
        assert target.slot_usage == 12
        # the bank has no FP-MDU, so the synthesis must load one
        assert target.count(FUType.FP_MDU) >= 1
        assert proc.run().halted
