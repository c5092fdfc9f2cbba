"""Tests for demand-driven configuration synthesis (§5 extension)."""

import pytest

from repro.errors import ConfigurationError
from repro.fabric.configuration import NUM_RFU_SLOTS
from repro.isa.futypes import FU_TYPES, FUType
from repro.steering.demand import DemandSynthesizer


#: configured counts of an empty fabric: any synthesis that provides a
#: demanded type beats it by the margin, so :meth:`propose` adopts it.
_EMPTY = (0,) * len(FU_TYPES)


def _required(**kwargs):
    by_name = {t.short_name: t for t in FU_TYPES}
    out = [0] * len(FU_TYPES)
    for name, v in kwargs.items():
        out[by_name[name.upper()].bit_index] = v
    return tuple(out)


class TestObserve:
    def test_ema_converges_toward_constant_demand(self):
        synth = DemandSynthesizer(smoothing=0.5)
        for _ in range(20):
            synth.observe(_required(ialu=4, imdu=2))
        demand = synth._demand
        assert demand[FUType.INT_ALU.bit_index] == pytest.approx(4, abs=0.01)
        assert demand[FUType.INT_MDU.bit_index] == pytest.approx(2, abs=0.01)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigurationError):
            DemandSynthesizer().observe((1, 2, 3))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DemandSynthesizer(smoothing=0.0)
        with pytest.raises(ConfigurationError):
            DemandSynthesizer(smoothing=1.5)
        with pytest.raises(ConfigurationError):
            DemandSynthesizer(improvement_margin=-0.1)


class TestSynthesize:
    def test_integer_demand_yields_integer_units(self):
        synth = DemandSynthesizer(smoothing=0.5)
        for _ in range(20):
            synth.observe(_required(ialu=5, imdu=2))
        cfg = synth.propose(_EMPTY)
        assert cfg.count(FUType.INT_ALU) >= 2
        assert cfg.count(FUType.FP_ALU) == 0
        assert cfg.slot_usage <= NUM_RFU_SLOTS

    def test_fp_demand_yields_fp_units(self):
        synth = DemandSynthesizer(smoothing=0.5)
        for _ in range(20):
            synth.observe(_required(fpmdu=4, fpalu=2, lsu=1))
        cfg = synth.propose(_EMPTY)
        assert cfg.count(FUType.FP_MDU) >= 1

    def test_no_demand_yields_empty_config(self):
        assert DemandSynthesizer().propose(_EMPTY) is None

    def test_budget_never_exceeded(self):
        synth = DemandSynthesizer(smoothing=1.0)
        synth.observe(_required(ialu=7, imdu=7, lsu=7, fpalu=7, fpmdu=7))
        assert synth.propose(_EMPTY).slot_usage <= NUM_RFU_SLOTS

    def test_synthesized_names_unique(self):
        synth = DemandSynthesizer(smoothing=0.5)
        synth.observe(_required(ialu=4))
        a, b = synth.propose(_EMPTY), synth.propose(_EMPTY)
        assert a.name != b.name


class TestHysteresis:
    def test_no_retarget_when_current_matches(self):
        synth = DemandSynthesizer(smoothing=0.5)
        for _ in range(20):
            synth.observe(_required(ialu=4))
        # current fabric already has lots of IALUs: no improvement
        current = (5, 1, 1, 1, 1)
        assert synth.propose(current) is None

    def test_retarget_on_clear_improvement(self):
        synth = DemandSynthesizer(smoothing=0.5)
        for _ in range(20):
            synth.observe(_required(fpmdu=5))
        current = (5, 3, 1, 1, 1)  # integer fabric, FP demand
        target = synth.propose(current)
        assert target is not None and target.count(FUType.FP_MDU) >= 1

    def test_zero_demand_never_retargets(self):
        assert DemandSynthesizer().propose((1, 1, 1, 1, 1)) is None


class TestDemandPolicyEndToEnd:
    def test_matches_golden_model_and_adapts(self):
        from repro.core.baselines import demand_processor
        from repro.core.params import ProcessorParams
        from repro.workloads.kernels import fir_filter

        kernel = fir_filter(n=48)
        proc = demand_processor(kernel.program, ProcessorParams(reconfig_latency=4))
        result = proc.run(max_cycles=200_000)
        assert result.halted
        kernel.verify(proc.dmem)
        loaded = {p.fu_type for p in proc.policy.loader.history}
        assert FUType.FP_MDU in loaded or FUType.FP_ALU in loaded

    def test_does_not_thrash(self):
        """Hysteresis keeps the reconfiguration count modest."""
        from repro.core.baselines import demand_processor
        from repro.core.params import ProcessorParams
        from repro.workloads.kernels import saxpy

        kernel = saxpy(n=64)
        proc = demand_processor(kernel.program, ProcessorParams(reconfig_latency=8))
        result = proc.run()
        assert result.reconfigurations < 20

    def test_describe(self):
        from repro.core.policies import DemandSteering

        assert "predefined-config-free" in DemandSteering().describe()
