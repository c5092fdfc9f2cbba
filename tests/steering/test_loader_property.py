"""Property tests: the configuration loader under random target churn.

Whatever sequence of targets, busy markings and clock ticks the loader
sees, it must (1) never violate fabric invariants, (2) converge to any
stable target once units fall idle, and (3) never perform a load that
evicts a unit the target still wants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.configuration import PREDEFINED_CONFIGS
from repro.fabric.fabric import Fabric
from repro.isa.futypes import FU_TYPES
from repro.steering.loader import ConfigurationLoader

_TARGETS = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2]),  # config index or keep-current
        st.integers(1, 12),                # cycles to run with this target
        st.booleans(),                     # pin a random unit busy?
    ),
    min_size=1,
    max_size=12,
)


def _fu_counts_ok(fabric: Fabric) -> None:
    covered = set()
    for head, unit in fabric.rfus.units():
        span = range(head, head + unit.fu_type.slot_cost)
        assert not covered.intersection(span)
        covered.update(span)


@settings(max_examples=80, deadline=None)
@given(script=_TARGETS)
def test_loader_never_corrupts_fabric(script):
    fabric = Fabric(reconfig_latency=2)
    loader = ConfigurationLoader(fabric)
    pinned = []  # [unit, cycles until its instruction completes]
    for target_idx, cycles, pin in script:
        loader.set_target(
            None if target_idx is None else PREDEFINED_CONFIGS[target_idx]
        )
        for _ in range(cycles):
            loader.step()
            fabric.tick()
            for held in pinned:
                held[1] -= 1
                if held[1] == 0:
                    fabric.release(held[0])
            pinned = [held for held in pinned if held[1] > 0]
            _fu_counts_ok(fabric)
        if pin and fabric.rfus.units():
            head, unit = fabric.rfus.units()[0]
            # issue its type until it is busy (the fixed units of the type
            # are taken first); every issued unit is held for 5 cycles
            while unit.available:
                pinned.append([fabric.issue(unit.fu_type), 5])


@settings(max_examples=40, deadline=None)
@given(
    final=st.integers(0, 2),
    churn=st.lists(st.integers(0, 2), max_size=6),
)
def test_loader_converges_once_target_stabilises(final, churn):
    """After arbitrary churn, holding one target with an idle fabric loads
    it completely within a bounded number of cycles."""
    fabric = Fabric(reconfig_latency=1)
    loader = ConfigurationLoader(fabric)
    for idx in churn:
        loader.set_target(PREDEFINED_CONFIGS[idx])
        for _ in range(5):
            loader.step()
            fabric.tick()
    target = PREDEFINED_CONFIGS[final]
    loader.set_target(target)
    for _ in range(200):
        loader.step()
        fabric.tick()
    assert loader.satisfied
    counts = fabric.rfus.counts()
    for t in FU_TYPES:
        assert counts.get(t, 0) >= target.count(t)


@settings(max_examples=40, deadline=None)
@given(pair=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_loader_never_evicts_wanted_units(pair):
    """Switching between two configs: no load may evict a unit type the
    new target still needs more of than it would have afterwards."""
    first, second = (PREDEFINED_CONFIGS[i] for i in pair)
    fabric = Fabric(reconfig_latency=1)
    loader = ConfigurationLoader(fabric)
    loader.set_target(first)
    for _ in range(100):
        loader.step()
        fabric.tick()
    loader.set_target(second)
    for _ in range(100):
        plan = loader.step()
        if plan is not None:
            # count units of each evicted type before/after constraints:
            # the loader's surplus rule means the evicted type had more
            # loaded+pending units than the target wants
            for evicted in set(plan.evicted):
                assert second.count(evicted) <= sum(
                    1
                    for _, u in fabric.rfus.units()
                    if u.fu_type is evicted
                ) + fabric.rfus.pending_counts().get(evicted, 0) + 1
        fabric.tick()
    assert loader.satisfied
