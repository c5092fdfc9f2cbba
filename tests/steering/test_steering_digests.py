"""Pinned result digests of the steering policies off their default path.

The golden traces run every catalogue policy through its factory, which
sizes the selection window to the wake-up array.  These cases pin what
the factories never build, each as a SHA-256 over the canonical JSON of
its records, compared with ``tests/steering/data/steering_digests.json``:

* the default ``PaperSteering()`` (a 7-entry selection window) in an
  11-entry wake-up array, so the window is the first seven waiting
  entries rather than all of them;
* ``DemandSteering(queue_size=3)`` in a 7-entry wake-up array;
* a two-slot ``DemandSynthesizer`` whose fixed bank has no FP
  multiply/divide unit, driven directly: no FP unit fits two slots, so
  that type's error term stays ``8 * demand``, which can be below one
  cycle.  The ``demand-N`` names of its proposals are pinned as well as
  their digest.

Each processor case runs a phased program, ``bubble_sort`` (many
flushes) and ``checksum``, in both scheduling modes.  Regenerate the file
only for an intended change of steering behaviour::

    PYTHONPATH=src python -m tests.steering.test_steering_digests --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.core.params import ProcessorParams
from repro.core.policies import DemandSteering, PaperSteering
from repro.core.processor import Processor
from repro.isa.futypes import FU_TYPES, FUType
from repro.steering.demand import DemandSynthesizer, greedy_fill_counts
from repro.utils.canonical import canonical_dumps
from repro.workloads.kernels import checksum
from repro.workloads.kernels_extra import bubble_sort
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX

DIGESTS = Path(__file__).parent / "data" / "steering_digests.json"

#: a fixed bank with no FP multiply/divide unit.
ZERO_FPMDU_FFUS = {
    FUType.INT_ALU: 1,
    FUType.INT_MDU: 1,
    FUType.LSU: 1,
    FUType.FP_ALU: 1,
}


def _programs():
    return {
        "phased": phased_program(
            [(INT_MIX, 20), (MEM_MIX, 20), (FP_MIX, 20)], body_len=16, seed=3
        ),
        "bubble_sort": bubble_sort(16).program,
        "checksum": checksum(iterations=60).program,
    }


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(canonical_dumps(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def _plans(history) -> list:
    return [
        [plan.head, plan.fu_type.short_name,
         [t.short_name for t in plan.evicted], plan.latency]
        for plan in history
    ]


def _processor_records(make_policy, window_size: int) -> list:
    records = []
    for name, program in _programs().items():
        for pipelined in (False, True):
            params = ProcessorParams(
                window_size=window_size, pipelined_scheduling=pipelined
            )
            policy = make_policy()
            result = Processor(program, params=params, policy=policy).run(
                max_cycles=50_000
            )
            record = {"program": name, "pipelined": pipelined,
                      "result": result.to_dict()}
            if isinstance(policy, PaperSteering):
                stats = policy.manager.stats
                record["total_selected_error"] = stats.total_selected_error
                record["loads"] = _plans(policy.manager.loader.history)
            else:
                record["retargets"] = [
                    [cfg.name, sorted((t.short_name, n) for t, n in cfg.counts.items())]
                    for cfg in policy.retargets
                ]
                record["loads"] = _plans(policy.loader.history)
            records.append(record)
    return records


def _synthesizer_run() -> tuple[list, int]:
    """Drive a two-slot zero-FP-MDU synthesizer through phases of random
    windows, adopting every proposal at once (as if loaded instantly).

    Returns the proposals and how many of them a bound that also charged
    the FP-MDU term one cycle would have ruled out.
    """
    rng = random.Random(11)
    synth = DemandSynthesizer(n_slots=2, ffu_counts=ZERO_FPMDU_FFUS)
    fp_mdu = FU_TYPES.index(FUType.FP_MDU)
    current = [ZERO_FPMDU_FFUS.get(t, 0) for t in FU_TYPES]
    # per phase: the mean required count of each type in a window; every
    # type is demanded, FP-MDU so little that 8 * demand < 1, and the
    # phases alternate which integer type is short of units
    phases = [
        (2.2, 0.5, 0.5, 0.5, 0.05),
        (0.5, 0.5, 2.2, 0.5, 0.05),
        (0.5, 2.4, 0.5, 0.5, 0.04),
        (2.0, 0.5, 0.6, 0.5, 0.06),
        (0.6, 0.4, 2.3, 0.4, 0.05),
    ]
    proposals = []
    overcharged = 0
    cycle = 0
    for means in phases:
        for _ in range(300):
            # stochastic rounding of each mean
            required = [int(m + rng.random()) for m in means]
            synth.observe(required)
            demand = synth.demand
            wrong_bound = sum(1.0 for d in demand if d > 1e-3)
            threshold = synth._saturated_error(current) * (
                1.0 - synth.improvement_margin
            )
            target = synth.propose(tuple(current))
            if target is not None:
                if wrong_bound >= threshold and 8.0 * demand[fp_mdu] < 1.0:
                    overcharged += 1
                current = [
                    target.count(t) + ZERO_FPMDU_FFUS.get(t, 0) for t in FU_TYPES
                ]
                proposals.append({
                    "cycle": cycle,
                    "name": target.name,
                    "counts": sorted(
                        (t.short_name, n) for t, n in target.counts.items()
                    ),
                })
            cycle += 1
    return proposals, overcharged


def compute_digests() -> dict:
    proposals, _ = _synthesizer_run()
    return {
        "paper-default-window-11": _digest(
            _processor_records(PaperSteering, window_size=11)
        ),
        "demand-queue-3-window-7": _digest(
            _processor_records(lambda: DemandSteering(queue_size=3), window_size=7)
        ),
        "synthesizer-zero-fpmdu": _digest(proposals),
        "synthesizer-zero-fpmdu-names": [p["name"] for p in proposals],
    }


def test_steering_digests_match_pins():
    pinned = json.loads(DIGESTS.read_text())
    assert compute_digests() == pinned


def test_zero_fpmdu_case_needs_the_unprovided_type_left_out():
    """The synthesizer case checks the error bound only if some adopted
    proposal would be lost by a bound that charged the unprovided type's
    sub-cycle ``8 * demand`` term a whole cycle."""
    proposals, overcharged = _synthesizer_run()
    assert len(proposals) >= 3
    assert overcharged >= 1


def test_synthesizer_takes_an_unprovided_type_first_when_it_fits():
    """A fixed bank without an FP multiply/divide unit and enough slots
    for one: the fill values that type's first unit above every unit of a
    provided type, so it is taken first (and nothing divides by zero)."""
    rng = random.Random(5)
    synth = DemandSynthesizer(n_slots=8, ffu_counts=ZERO_FPMDU_FFUS)
    fp_mdu = FU_TYPES.index(FUType.FP_MDU)
    current = [ZERO_FPMDU_FFUS.get(t, 0) for t in FU_TYPES]
    adopted = []
    for means in [(2.2, 0.5, 0.5, 0.5, 0.3), (0.5, 2.4, 0.5, 0.5, 0.6),
                  (0.5, 0.5, 2.3, 0.5, 0.4)]:
        for _ in range(200):
            synth.observe([int(m + rng.random()) for m in means])
            target = synth.propose(tuple(current))
            if target is not None:
                current = [
                    target.count(t) + ZERO_FPMDU_FFUS.get(t, 0) for t in FU_TYPES
                ]
                adopted.append(target)
    assert adopted
    assert all(target.count(FUType.FP_MDU) == 1 for target in adopted)
    counts = greedy_fill_counts(synth.demand, 8, ZERO_FPMDU_FFUS)
    assert counts[FUType.FP_MDU] == 1
    assert current[fp_mdu] == 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.steering.test_steering_digests --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
