"""The fabric's incremental availability must track the Eq. 1 rescan exactly.

:class:`Fabric` point-updates its idle counts and the 5-bit availability
bus as :meth:`Fabric.issue` and :meth:`Fabric.release` flip a unit, and
re-indexes them when a load starts or completes, instead of rescanning
the fabric every query.  These tests drive
a fabric through randomized issue / release / tick / reconfigure
sequences, and a register update unit through issue, completion and
squash, and pin the incremental answers to the bit-faithful
:func:`availability_report` over the Fig. 7 input vectors, and to a
direct per-unit rescan — after every single operation.
"""

import random
from collections import Counter

import pytest

from repro.errors import FabricError
from repro.fabric.availability import availability_report
from repro.fabric.fabric import Fabric
from repro.frontend.fetch import FetchedInstruction
from repro.frontend.memory import DataMemory
from repro.isa.assembler import assemble
from repro.isa.futypes import FU_TYPES, FUType
from repro.sched.entry import EntryState
from repro.sched.ruu import RegisterUpdateUnit
from tests.fabric.slot_counts import rfu_loaded, rfu_loading

_LATENCY = 4


def _reference_bits(fabric):
    """Eq. 1 bus re-derived through the Fig. 7 reference circuit."""
    report = availability_report(*fabric.full_allocation())
    bits = 0
    for t, avail in report.items():
        if avail:
            bits |= 1 << t.bit_index
    return bits


def _reference_idle_counts(fabric):
    """Idle units per type from a direct scan of every configured unit."""
    out = {t: 0 for t in FU_TYPES}
    for u in fabric.ffus.units:
        if u.available:
            out[u.fu_type] += 1
    for _, u in fabric.rfus.units():
        if u.available:
            out[u.fu_type] += 1
    return out


def _assert_consistent(fabric):
    assert fabric.availability_bits() == _reference_bits(fabric)
    assert fabric.idle_counts() == _reference_idle_counts(fabric)
    counts = fabric.counts_tuple()
    configured = Counter(u.fu_type for u in fabric.ffus.units)
    configured.update(rfu_loaded(fabric.rfus))
    assert counts == tuple(configured[t] for t in FU_TYPES)
    have = Counter(rfu_loaded(fabric.rfus))
    have.update(rfu_loading(fabric.rfus))
    assert fabric.rfu_have == {t: have[t] for t in FU_TYPES}
    for i, t in enumerate(FU_TYPES):
        assert fabric.idle_counts()[t] <= counts[i]


def _random_step(rng, fabric):
    """Apply one random mutation; returns a label for debugging."""
    choices = ["tick"]
    idle = fabric.idle_counts()
    occupiable = [t for t in FU_TYPES if idle[t] > 0]
    if occupiable:
        choices.append("occupy")
    units = fabric.ffus.units + [u for _, u in fabric.rfus.units()]
    busy = [u for u in units if not u.available]
    if busy:
        choices.append("release")
    if fabric.rfus.bus_free:
        choices.append("reconfigure")
    op = rng.choice(choices)
    if op == "occupy":
        fabric.issue(rng.choice(occupiable))
    elif op == "release":
        fabric.release(rng.choice(busy))
    elif op == "reconfigure":
        t = rng.choice(FU_TYPES)
        head = rng.randrange(fabric.rfus.n_slots)
        if fabric.rfus.range_reconfigurable(head, t):
            fabric.begin_reconfigure(head, t)
        else:
            op = "tick"
            fabric.tick()
    else:
        fabric.tick()
    return op


@pytest.mark.parametrize("seed", range(10))
def test_random_sequences_match_rescan(seed):
    rng = random.Random(seed)
    fabric = Fabric(n_slots=8, reconfig_latency=_LATENCY)
    _assert_consistent(fabric)
    for _ in range(400):
        _random_step(rng, fabric)
        _assert_consistent(fabric)


def test_load_completion_and_eviction_tracked():
    fabric = Fabric(n_slots=8, reconfig_latency=_LATENCY)
    t = FU_TYPES[0]
    before = fabric.counts_tuple()[0]
    fabric.begin_reconfigure(0, t)
    _assert_consistent(fabric)  # pending unit counts nowhere yet
    for _ in range(_LATENCY * t.slot_cost):
        fabric.tick()
        _assert_consistent(fabric)
    assert fabric.counts_tuple()[0] == before + 1
    # evict it by loading a different type over the same region
    other = FU_TYPES[1]
    assert fabric.rfus.range_reconfigurable(0, other)
    fabric.begin_reconfigure(0, other)
    _assert_consistent(fabric)
    assert fabric.counts_tuple()[0] == before


def test_busy_unit_events_update_bus_and_counts():
    fabric = Fabric(n_slots=8, reconfig_latency=_LATENCY)
    t = FU_TYPES[0]
    n_idle = fabric.idle_counts()[t]
    assert n_idle >= 1
    units = [fabric.issue(t) for _ in range(n_idle)]
    assert fabric.idle_counts()[t] == 0
    assert not fabric.availability_bits() & (1 << t.bit_index)
    _assert_consistent(fabric)
    for unit in units:
        fabric.release(unit)
        _assert_consistent(fabric)
    assert fabric.idle_counts()[t] == n_idle
    assert fabric.availability_bits() & (1 << t.bit_index)
    assert all(u.available for u in units)


def _loaded(fabric, fu_type):
    """Load one ``fu_type`` unit at slot 0 and tick until it is configured."""
    fabric.begin_reconfigure(0, fu_type)
    while not fabric.rfus.bus_free:
        fabric.tick()
    _assert_consistent(fabric)


def test_ruu_issue_completion_and_squash_match_rescan():
    """The register update unit occupies units through ``Fabric.issue`` and
    frees them through ``Fabric.release`` on completion (``tick``) and on
    a squash (``flush_younger``); the fabric matches the rescan after each.
    With the loads and evictions above, every transition the cycle loop
    makes is pinned."""
    fabric = Fabric(n_slots=8, reconfig_latency=_LATENCY)
    _loaded(fabric, FUType.INT_MDU)
    ruu = RegisterUpdateUnit(fabric, DataMemory(size=4096))
    program = assemble("add x1, x2, x3\nmul x4, x5, x6\nmul x7, x8, x9\n")
    entries = [
        ruu.dispatch(FetchedInstruction(pc, instr, pc + 1))
        for pc, instr in enumerate(program.instructions)
    ]
    ruu.issue_and_execute()  # all three issue; the second mul on the RFU
    assert all(e.state is EntryState.ISSUED for e in entries)
    assert entries[1].unit.fixed and not entries[2].unit.fixed
    assert fabric.idle_counts()[FUType.INT_MDU] == 0
    _assert_consistent(fabric)
    fabric.tick()
    ruu.tick()  # the add completes (latency 1) and frees the IALU
    assert entries[0].state is EntryState.COMPLETED
    assert entries[0].unit.available
    _assert_consistent(fabric)
    assert ruu.flush_younger(entries[0].seq) == 2  # squash both muls
    assert entries[1].unit.available and entries[2].unit.available
    assert fabric.idle_counts()[FUType.INT_MDU] == 2
    _assert_consistent(fabric)
    for _ in range(4):  # their due cycles pass without a second release
        fabric.tick()
        ruu.tick()
        _assert_consistent(fabric)


def test_rfu_flips_count_only_reconfigurable_transitions():
    """The configuration loader keys its blocked-placement memo on
    ``rfu_flips``: each issue or release of a reconfigurable unit moves it
    by one, a fixed unit's leaves it, and so do loads."""
    fabric = Fabric(n_slots=8, reconfig_latency=_LATENCY)
    flips = fabric.rfu_flips
    _loaded(fabric, FUType.INT_ALU)
    assert fabric.rfu_flips == flips
    fixed = fabric.issue(FUType.INT_ALU)
    assert fixed.fixed and fabric.rfu_flips == flips
    loaded = fabric.issue(FUType.INT_ALU)
    assert not loaded.fixed and fabric.rfu_flips == flips + 1
    fabric.release(fixed)
    assert fabric.rfu_flips == flips + 1
    fabric.release(loaded)
    assert fabric.rfu_flips == flips + 2


def test_crosscheck_mode_smoke():
    """With the debug cross-check armed, every query re-derives from a
    rescan and raises on divergence — a clean random run must not raise."""
    fabric = Fabric(n_slots=8, reconfig_latency=_LATENCY)
    fabric.crosscheck = True
    rng = random.Random(99)
    for _ in range(200):
        _random_step(rng, fabric)
        fabric.availability_bits()
        fabric.idle_counts()


def test_crosscheck_detects_seeded_divergence():
    """Corrupting the incremental state must trip the cross-check."""
    fabric = Fabric(n_slots=8, reconfig_latency=_LATENCY)
    fabric.crosscheck = True
    fabric._idle_counts[FU_TYPES[0]] += 1  # simulate a missed event
    with pytest.raises(FabricError):
        fabric.idle_counts()


def test_crosscheck_detects_a_missed_structure_change():
    """A load started behind the fabric's back (on the slot array itself)
    evicts a unit the fabric still indexes: the cross-check's rescan of
    the units sees it."""
    fabric = Fabric(n_slots=8, reconfig_latency=_LATENCY)
    _loaded(fabric, FUType.INT_ALU)
    fabric.crosscheck = True
    fabric.rfus.begin_reconfigure(0, FUType.LSU)
    with pytest.raises(FabricError, match="diverged from a rescan"):
        fabric.availability_bits()
