"""Property tests: random operation sequences on the RFU slot array.

Invariants that must hold after any legal sequence of loads, ticks,
occupations and releases:

* the allocation vector is always structurally valid (the constructor
  validates spans);
* unit counts equal the number of head slots;
* units never overlap (every slot belongs to at most one unit);
* the configuration bus is exclusive;
* a busy unit is never evicted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FabricError
from repro.fabric.allocation import EMPTY_ENCODING, SPAN_ENCODING
from repro.fabric.slots import RfuSlotArray
from repro.isa.futypes import FU_TYPES, FUType
from tests.fabric.slot_counts import rfu_loaded

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("load"),
            st.integers(0, 7),
            st.sampled_from(list(FU_TYPES)),
        ),
        st.tuples(st.just("tick"), st.integers(1, 8)),
        st.tuples(st.just("occupy"), st.integers(0, 7)),
        st.tuples(st.just("release"), st.integers(0, 7)),
    ),
    max_size=40,
)


def _apply(arr: RfuSlotArray, op) -> None:
    kind = op[0]
    if kind == "load":
        _, head, fu_type = op
        if arr.range_reconfigurable(head, fu_type):
            arr.begin_reconfigure(head, fu_type)
    elif kind == "tick":
        for _ in range(op[1]):
            arr.tick()
    elif kind == "occupy":
        head = arr.head_of(op[1])
        if head is not None:
            arr.slots[head].unit.busy = True
    elif kind == "release":
        head = arr.head_of(op[1])
        if head is not None:
            arr.slots[head].unit.busy = False


def _check_invariants(arr: RfuSlotArray) -> None:
    # allocation vector validity (constructor checks spans)
    vec = arr.allocation_vector()
    # counts equal head slots
    assert sum(rfu_loaded(arr).values()) == len(arr.units())
    # no slot belongs to two units
    covered = {}
    for head, unit in arr.units():
        for i in range(head, head + unit.fu_type.slot_cost):
            assert i not in covered, f"slot {i} doubly owned"
            covered[i] = head
    # span bookkeeping agrees with the vector
    heads = {
        i: FUType(e)
        for i, e in enumerate(vec.entries)
        if e not in (EMPTY_ENCODING, SPAN_ENCODING)
    }
    assert heads == {h: u.fu_type for h, u in arr.units()}
    # bus exclusivity: at most one pending head
    pending_heads = [s.index for s in arr.slots if s.pending_type is not None]
    assert len(pending_heads) <= 1
    if pending_heads:
        assert not arr.bus_free


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
def test_random_operation_sequences_preserve_invariants(ops):
    arr = RfuSlotArray(reconfig_latency=2)
    for op in ops:
        _apply(arr, op)
        _check_invariants(arr)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_busy_units_survive_everything(ops):
    """A unit pinned busy forever is never evicted by any legal sequence."""
    arr = RfuSlotArray(reconfig_latency=1)
    arr.begin_reconfigure(3, FUType.INT_MDU)
    while not arr.bus_free:
        arr.tick()
    pinned = arr.slots[3].unit
    pinned.busy = True
    for op in ops:
        if op[0] == "release" and arr.head_of(op[1]) == 3:
            continue  # the premise is that this unit stays busy
        _apply(arr, op)
    assert arr.slots[3].unit is pinned
    assert arr.head_of(4) == 3  # the span slot still belongs to it


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, drain=st.integers(0, 64))
def test_bus_always_drains(ops, drain):
    """After enough idle ticks the bus frees and pending units install."""
    arr = RfuSlotArray(reconfig_latency=2)
    for op in ops:
        _apply(arr, op)
    for _ in range(16):  # max pending latency is 2 * 3 slots = 6
        arr.tick()
    assert arr.bus_free
    assert not any(s.is_reconfiguring for s in arr.slots)
