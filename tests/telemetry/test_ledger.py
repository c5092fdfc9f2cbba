"""The steering decision ledger: contents, bounds, and the no-perturb rule.

The load-bearing guarantee: attaching a ledger never changes simulation
results — ``SimulationResult.to_dict()`` stays bit-identical with the
ledger on and off (the fuzzer's ``metamorphic-telemetry`` check rotates
over the same property on random programs).
"""

import json

import pytest

from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.isa.futypes import FU_TYPES
from repro.telemetry import DecisionLedger, ProcessorTelemetry

_PARAMS = ProcessorParams(reconfig_latency=8)


def _program():
    from repro.workloads.kernels import checksum

    return checksum(iterations=30).program


def _run_with_ledger():
    tel = ProcessorTelemetry()
    result = steering_processor(_program(), _PARAMS, observer=tel).run()
    return tel.ledger, result


def _kept(ledger):
    """Finalized decisions the ledger still holds (the open one excluded)."""
    return len(ledger.decisions()) - (ledger.opened - ledger.seen)


class TestNoPerturbation:
    def test_ledger_on_off_bit_identical(self):
        plain = steering_processor(_program(), _PARAMS).run()
        _, observed = _run_with_ledger()
        assert observed.to_dict() == plain.to_dict()
        assert observed.final_registers == plain.final_registers



class TestRecordedDecisions:
    def test_decisions_carry_the_documented_fields(self):
        ledger, _ = _run_with_ledger()
        decisions = ledger.decisions()
        assert decisions, "steering run produced no decisions"
        short_names = {t.short_name for t in FU_TYPES}
        for d in decisions:
            assert set(d["demand"]) == short_names
            assert set(d["idle"]) == short_names
            assert d["selection"] >= 0
            assert isinstance(d["availability_bits"], int)
            assert 0.0 <= d["predicted_ipc"] <= _PARAMS.retire_width
        # every decision except a still-open last one has been judged
        for d in decisions[:-1]:
            assert d["realized_ipc"] is not None
            assert d["prediction_error"] == pytest.approx(
                d["realized_ipc"] - d["predicted_ipc"]
            )
            assert 1 <= d["window"]

    def test_seen_counts_finalized_decisions(self):
        ledger, _ = _run_with_ledger()
        assert ledger.seen >= 1
        assert ledger.dropped == ledger.seen - _kept(ledger)

    def test_to_dict_is_json_serialisable(self):
        ledger, _ = _run_with_ledger()
        doc = json.loads(json.dumps(ledger.to_dict()))
        assert doc["version"] == 1
        assert doc["seen"] == ledger.seen
        assert len(doc["decisions"]) == len(ledger.decisions())

    def test_snapshot_reports_decision_count(self):
        tel = ProcessorTelemetry()
        steering_processor(_program(), _PARAMS, observer=tel).run()
        assert tel.snapshot()["decision_count"] == tel.ledger.seen

    def test_opened_counts_the_open_decision(self):
        ledger, _ = _run_with_ledger()
        assert ledger.opened == len(ledger.decisions()) + ledger.dropped
        assert ledger.opened == ledger.seen + 1  # the last one is open


# ----------------------------------------------- synthetic stride coarsening
class _FakeRUU:
    def __init__(self):
        self.retired = 0

    def ready_unscheduled(self):
        return []


class _FakeFabric:
    def idle_counts(self):
        return {t: 0 for t in FU_TYPES}

    def availability_bits(self):
        return 0


class _FakeProc:
    def __init__(self):
        self.ruu = _FakeRUU()
        self.fabric = _FakeFabric()
        self.params = _PARAMS


class _FakeManager:
    last_error = 0
    last_result = None

    def __init__(self):
        self.last_selection = None


def _drive(ledger, flips, step=100):
    """Flip the selection ``flips`` times; each flip finalizes the last."""
    proc, manager = _FakeProc(), _FakeManager()
    for i in range(flips):
        manager.last_selection = i % 2 + 1
        ledger.on_cycle(proc, i * step, manager)
    return ledger


class TestBoundedMemory:
    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="at least 4"):
            DecisionLedger(capacity=2)

    def test_stride_doubles_instead_of_growing(self):
        ledger = _drive(DecisionLedger(capacity=8, window=50), flips=100)
        assert len(ledger.decisions()) <= 8 + 1  # kept records + the open decision
        assert ledger.stride > 1
        assert ledger.seen == 99  # the last decision is still open
        assert ledger.dropped == ledger.seen - _kept(ledger)

    def test_kept_decisions_stay_spread_over_the_run(self):
        ledger = _drive(DecisionLedger(capacity=8, window=50), flips=200)
        kept = [d["cycle"] for d in ledger.decisions()[:-1]]
        assert kept == sorted(kept)
        assert kept[0] == 0  # the first decision is never thinned away
        assert kept[-1] >= 100 * 100  # coverage reaches the back half

    def test_small_runs_keep_everything(self):
        ledger = _drive(DecisionLedger(capacity=64, window=50), flips=10)
        assert ledger.stride == 1
        assert ledger.dropped == 0
        assert ledger.seen == 9
