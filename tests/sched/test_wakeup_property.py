"""Property tests: the wake-up array under random operation sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.futypes import FU_TYPES
from repro.sched.wakeup import WakeupArray

_ALL_RESOURCES = (1 << len(FU_TYPES)) - 1

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(list(FU_TYPES)), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 6)),
        st.tuples(st.just("schedule"), st.integers(0, 6)),
        st.tuples(st.just("reschedule"), st.integers(0, 6)),
    ),
    max_size=50,
)


def _apply(arr: WakeupArray, op) -> None:
    kind = op[0]
    if kind == "insert" and not arr.full:
        # optionally depend on some currently occupied row
        deps = 0
        if op[2]:
            occupied = [i for i, r in enumerate(arr.rows) if r is not None]
            if occupied:
                deps = 1 << occupied[0]
        arr.insert(op[1], deps)
    elif kind == "remove" and arr.rows[op[1]] is not None:
        arr.remove(op[1])
    elif kind == "schedule" and arr.rows[op[1]] is not None:
        if not arr.rows[op[1]].scheduled:
            arr.mark_scheduled(op[1])
    elif kind == "reschedule" and arr.rows[op[1]] is not None:
        arr.reschedule(op[1])


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_invariants_under_random_operations(ops):
    arr = WakeupArray(7)
    for op in ops:
        _apply(arr, op)
        # dep bits only reference occupied rows (columns cleared on remove)
        for row in arr.rows:
            if row is None:
                continue
            for j in range(arr.n_entries):
                if (row.dep_bits >> j) & 1:
                    assert arr.rows[j] is not None
        # requests never include scheduled or empty rows
        requests = arr.requests(_ALL_RESOURCES, (1 << arr.n_entries) - 1)
        for r in requests:
            assert arr.rows[r] is not None
            assert not arr.rows[r].scheduled


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_full_availability_wakes_all_unscheduled(ops):
    """With every resource and result available, the request set is
    exactly the occupied, unscheduled rows."""
    arr = WakeupArray(7)
    for op in ops:
        _apply(arr, op)
    expected = [
        i for i, r in enumerate(arr.rows) if r is not None and not r.scheduled
    ]
    assert arr.requests(_ALL_RESOURCES, (1 << arr.n_entries) - 1) == expected


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_no_availability_wakes_only_independent_rows(ops):
    """With no results available, only rows without dependences (and with
    their resource available) may request."""
    arr = WakeupArray(7)
    for op in ops:
        _apply(arr, op)
    for r in arr.requests(_ALL_RESOURCES, 0):
        assert arr.rows[r].dep_bits == 0
