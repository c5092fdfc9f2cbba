"""Equivalence proofs for the bit-packed wake-up/select scheduler kernel.

The packed kernel (:meth:`WakeupArray.requests_mask`) must be
bit-identical to the original per-row loop, kept alive as
:meth:`WakeupArray.requests_reference`; and the grant loop inlined in the
register update unit must match :func:`select_grants`.  These tests drive
both pairs across randomized window states, availability buses and whole
reconfiguring simulations.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.isa.futypes import FU_TYPES, NUM_FU_TYPES
from repro.sched.select import select_grants
from repro.sched.wakeup import WakeupArray
from repro.workloads.kernels import checksum


def _assert_equivalent(arr, resource_bits, result_bits):
    mask = arr.requests_mask(resource_bits, result_bits)
    reference = arr.requests_reference(resource_bits, result_bits)
    assert arr.requests(resource_bits, result_bits) == reference
    assert mask == sum(1 << i for i in reference)


# ------------------------------------------------------- randomized states
@pytest.mark.parametrize("seed", range(8))
def test_random_operation_sequences_match_reference(seed):
    """Evolve an array through random insert/remove/schedule/reschedule
    operations; after every step the kernel must agree with the reference
    on every availability-bus combination probed."""
    rng = random.Random(seed)
    n = rng.choice([3, 5, 7, 9])
    arr = WakeupArray(n_entries=n)
    occupied: set[int] = set()
    scheduled: set[int] = set()
    for _ in range(300):
        ops = ["probe"]
        if len(occupied) < n:
            ops.append("insert")
        if occupied:
            ops += ["remove", "reschedule"]
        if occupied - scheduled:
            ops.append("schedule")
        op = rng.choice(ops)
        if op == "insert":
            deps = 0
            for d in sorted(occupied):
                if rng.random() < 0.4:
                    deps |= 1 << d
            row = arr.insert(rng.choice(FU_TYPES), deps)
            occupied.add(row)
        elif op == "remove":
            row = rng.choice(sorted(occupied))
            arr.remove(row)
            occupied.discard(row)
            scheduled.discard(row)
        elif op == "schedule":
            row = rng.choice(sorted(occupied - scheduled))
            arr.mark_scheduled(row)
            scheduled.add(row)
        elif op == "reschedule":
            row = rng.choice(sorted(occupied))
            arr.reschedule(row)
            scheduled.discard(row)
        resource_bits = rng.randrange(1 << NUM_FU_TYPES)
        result_bits = rng.randrange(1 << n)
        _assert_equivalent(arr, resource_bits, result_bits)
    # exhaustive resource-bus sweep on the final state
    result_bits = rng.randrange(1 << n)
    for resource_bits in range(1 << NUM_FU_TYPES):
        _assert_equivalent(arr, resource_bits, result_bits)


@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, NUM_FU_TYPES - 1),  # fu type
            st.integers(0, 127),               # dep mask (over earlier rows)
            st.booleans(),                     # scheduled
        ),
        max_size=7,
    ),
    resource_bits=st.integers(0, (1 << NUM_FU_TYPES) - 1),
    result_bits=st.integers(0, 127),
)
@settings(max_examples=200)
def test_kernel_equals_reference_property(rows, resource_bits, result_bits):
    arr = WakeupArray(n_entries=7)
    for i, (type_index, dep_mask, sched) in enumerate(rows):
        deps = dep_mask & ((1 << i) - 1)  # over earlier rows only
        row = arr.insert(FU_TYPES[type_index], deps)
        if sched:
            arr.mark_scheduled(row)
    _assert_equivalent(arr, resource_bits, result_bits)


def test_out_of_range_resource_bus_rejected():
    arr = WakeupArray(n_entries=7)
    from repro.errors import SchedulerError

    with pytest.raises(SchedulerError):
        arr.requests_mask(1 << NUM_FU_TYPES, 0)
    with pytest.raises(SchedulerError):
        arr.requests_mask(-1, 0)


# -------------------------------------------------- grant-loop equivalence
def _inline_grants(requests, idle_units):
    """Mirror of the RUU's inlined grant loop: walk the window oldest
    first (ascending seq — the order of ``RegisterUpdateUnit._order``) and
    grant any requesting row whose unit type still has an idle unit."""
    remaining = dict(idle_units)
    granted = []
    for row, _seq, fu_type in sorted(requests, key=lambda r: r[1]):
        if remaining.get(fu_type, 0) > 0:
            remaining[fu_type] -= 1
            granted.append(row)
    return granted


@pytest.mark.parametrize("seed", range(12))
def test_inline_grant_loop_matches_select_grants(seed):
    rng = random.Random(1000 + seed)
    n = 7
    rows = rng.sample(range(n), rng.randint(0, n))
    seqs = rng.sample(range(100), len(rows))
    requests = [
        (row, seq, rng.choice(FU_TYPES)) for row, seq in zip(rows, seqs)
    ]
    idle = {t: rng.randint(0, 3) for t in FU_TYPES}
    assert select_grants(requests, idle) == _inline_grants(requests, idle)


# ------------------------------------------------- whole-simulation check
def test_crosschecked_simulation_is_bit_identical(monkeypatch):
    """Run a steering simulation with the cross-check armed: the issue
    step compares every request mask with the reference loop (divergence
    raises), and the final result must equal an unchecked run exactly."""
    program = checksum(iterations=30).program
    params = ProcessorParams(reconfig_latency=8)
    plain = steering_processor(program, params).run(max_cycles=60_000)
    monkeypatch.setattr("repro.utils.env.CROSSCHECK", True)
    checked_proc = steering_processor(program, params)
    assert checked_proc.fabric.crosscheck
    checked = checked_proc.run(max_cycles=60_000)
    assert checked.to_dict() == plain.to_dict()
