"""Cross-policy invariant checks against the functional reference."""

import dataclasses

from repro.core.baselines import policy_catalogue, steering_processor
from repro.core.params import ProcessorParams
from repro.core.reference import run_reference
from repro.core.stats import OUTCOME_CUTOFF
from repro.verify.invariants import check_result_pair
from repro.workloads.kernels import checksum

PARAMS = ProcessorParams(reconfig_latency=8)
PROGRAM = checksum(iterations=10).program


def _reference():
    return run_reference(PROGRAM)


def _result():
    return steering_processor(PROGRAM, PARAMS).run(max_cycles=200_000)


def test_clean_run_has_no_violations():
    assert check_result_pair("steering", _result(), _reference(), PARAMS) == []


def test_whole_catalogue_clean():
    reference = _reference()
    for name, factory in policy_catalogue().items():
        result = factory(PROGRAM, PARAMS).run(max_cycles=200_000)
        assert check_result_pair(name, result, reference, PARAMS) == []


def test_non_completed_outcome_is_the_only_violation_reported():
    result = dataclasses.replace(_result(), outcome=OUTCOME_CUTOFF)
    violations = check_result_pair("steering", result, _reference(), PARAMS)
    assert [v.invariant for v in violations] == ["completed"]


def test_retired_count_mismatch_detected():
    result = dataclasses.replace(_result(), retired=_result().retired + 1)
    violations = check_result_pair("steering", result, _reference(), PARAMS)
    assert "retired-count" in [v.invariant for v in violations]


def test_final_state_mismatch_detected():
    good = _result()
    regs = {
        "int": list(good.final_registers["int"]),
        "fp": list(good.final_registers["fp"]),
    }
    regs["int"][5] ^= 1
    result = dataclasses.replace(good, final_registers=regs)
    violations = check_result_pair("steering", result, _reference(), PARAMS)
    kinds = [v.invariant for v in violations]
    assert "final-state" in kinds
    assert any("x5" in v.message for v in violations)


def test_nan_agreement_is_not_a_mismatch():
    good = _result()
    reference = _reference()
    regs = {
        "int": list(good.final_registers["int"]),
        "fp": list(good.final_registers["fp"]),
    }
    regs["fp"][3] = float("nan")
    snapshot = reference.registers.snapshot()
    snapshot["fp"] = list(snapshot["fp"])
    snapshot["fp"][3] = float("nan")

    class FakeRegs:
        def snapshot(self):
            return snapshot

    fake_ref = dataclasses.replace(reference, registers=FakeRegs())
    result = dataclasses.replace(good, final_registers=regs)
    assert check_result_pair("steering", result, fake_ref, PARAMS) == []


def test_ipc_bound_violation_detected():
    good = _result()
    ceiling = min(PARAMS.fetch_width, PARAMS.retire_width)
    result = dataclasses.replace(
        good,
        retired=good.cycles * (ceiling + 1),
    )
    violations = check_result_pair("steering", result, _reference(), PARAMS)
    assert "ipc-bound" in [v.invariant for v in violations]
