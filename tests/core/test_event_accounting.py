"""Utilisation and reuse by event: checked against per-cycle recounts.

The processor adds busy unit-cycles as each occupancy ends and integrates
configured unit-cycles only when the slot array's structure changes; the
steering policies, the loader and the issue step reuse what they derived
while its inputs stay unchanged.  These tests pin both to the per-cycle
work they replace:

* a recount observer sums busy and configured units at every tick, as a
  per-cycle loop would, and must equal the result's totals (also
  mid-run, and after a ``max_cycles`` cutoff with units still in flight);
* an invalidating observer drops every reuse key each cycle, which forces
  every value to be recomputed, and must leave the result record
  byte-identical;
* the debug cross-checks still see every issue evaluation, and the
  wake-up kernel runs at most once per issue step.
"""

import collections
import functools

import pytest

from repro.core.baselines import policy_catalogue
from repro.core.params import ProcessorParams
from repro.isa.futypes import FU_TYPES
from repro.sched.entry import EntryState
from repro.sched.wakeup import WakeupArray
from repro.steering import loader as loader_module
from repro.utils.canonical import canonical_dumps
from repro.workloads.kernels_extra import bubble_sort
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX

_CATALOGUE = policy_catalogue()
#: mispredict-heavy (data-dependent swaps) and reconfiguration-heavy.
_KERNELS = {
    "bubble_sort": bubble_sort(n=10).program,
    "phased": phased_program(
        [(INT_MIX, 2), (MEM_MIX, 2), (FP_MIX, 2)], body_len=16, seed=3
    ),
}
#: (window_size, reconfig_latency): every depth, both latencies.
_SHAPES = ((3, 1), (7, 16), (11, 1), (11, 16))
_GRID = [
    pytest.param(policy, pipelined, mode, id=f"{policy}-{mode}-pipe{int(pipelined)}")
    for policy in _CATALOGUE
    for pipelined in (False, True)
    for mode in ("module", "difference")
]


def _params(window, latency, pipelined, mode):
    return ProcessorParams(
        window_size=window,
        reconfig_latency=latency,
        pipelined_scheduling=pipelined,
        reconfig_mode=mode,
    )


def _run(policy, program, params, observer=None, max_cycles=200_000):
    proc = _CATALOGUE[policy](program, params)
    proc.observer = observer
    return proc, proc.run(max_cycles=max_cycles)


class Recount:
    """Sums configured and busy units at every tick (before completions)."""

    def __init__(self, check_every=0):
        self.busy = dict.fromkeys(FU_TYPES, 0)
        self.configured = dict.fromkeys(FU_TYPES, 0)
        self.check_every = check_every
        self.checked = 0

    def on_stage(self, proc, stage):
        if stage != "tick":
            return
        counts = proc.fabric.counts_tuple()
        idle = proc.fabric.idle_counts()
        for i, t in enumerate(FU_TYPES):
            self.configured[t] += counts[i]
            self.busy[t] += counts[i] - idle[t]

    def on_cycle(self, proc, packet, dispatched, issued, retired, flushed):
        if self.check_every and proc.cycle_count % self.check_every == 0:
            res = proc.result()
            assert res.busy_unit_cycles == self.busy
            assert res.configured_unit_cycles == self.configured
            self.checked += 1


class Invalidate:
    """Drops every reuse key at every stage, so nothing is reused."""

    def on_stage(self, proc, stage):
        proc.ruu._idle_blocked = None
        proc._structure_seen = -1
        policy = proc.policy
        for attr in ("_demand_seen", "_retired_seen"):
            if hasattr(policy, attr):
                setattr(policy, attr, -1)
        if hasattr(policy, "_reset_window"):
            policy._reset_window()
        if hasattr(policy, "_choices"):
            policy._choices.clear()
        policy.loader._missing_target = loader_module._UNSET
        policy.loader._blocked_target = loader_module._UNSET

    def on_cycle(self, proc, packet, dispatched, issued, retired, flushed):
        pass


def _record(result):
    return canonical_dumps(result.to_dict())


@functools.lru_cache(maxsize=None)
def _recounted_run(policy, kernel, window, latency, pipelined, mode):
    """The normal run's record, checked against the per-cycle recount
    (mid-run every 53 cycles and at the end)."""
    recount = Recount(check_every=53)
    params = _params(window, latency, pipelined, mode)
    _, res = _run(policy, _KERNELS[kernel], params, recount)
    assert res.halted
    assert res.busy_unit_cycles == recount.busy
    assert res.configured_unit_cycles == recount.configured
    assert recount.checked == (res.cycles + 52) // 53
    return _record(res)


@pytest.mark.parametrize("policy, pipelined, mode", _GRID)
def test_event_totals_equal_per_cycle_recount(policy, pipelined, mode):
    for kernel in _KERNELS:
        for window, latency in _SHAPES:
            _recounted_run(policy, kernel, window, latency, pipelined, mode)


@pytest.mark.parametrize("policy", sorted(_CATALOGUE))
def test_cutoff_counts_units_still_in_flight(policy):
    program = _KERNELS["phased"]
    params = _params(7, 16, False, "module")
    cut_in_flight = 0
    for max_cycles in range(5, 125, 8):
        recount = Recount()
        proc, res = _run(policy, program, params, recount, max_cycles=max_cycles)
        assert res.cycles == max_cycles and not res.halted
        assert res.busy_unit_cycles == recount.busy
        assert res.configured_unit_cycles == recount.configured
        cut_in_flight += any(e.state is EntryState.ISSUED for e in proc.ruu._order)
    # result() had open occupancies to add, not only closed ones
    assert cut_in_flight > 0


def test_mispredict_kernel_squashes_work():
    """The kernel really flushes, so the squash path is covered above."""
    _, res = _run("steering", _KERNELS["bubble_sort"], _params(11, 1, False, "module"))
    assert res.mispredictions >= 20 and res.squashed > 0


@pytest.mark.parametrize("policy, pipelined, mode", _GRID)
def test_reuse_is_exact(policy, pipelined, mode):
    for kernel, program in _KERNELS.items():
        for window, latency in _SHAPES:
            params = _params(window, latency, pipelined, mode)
            _, recomputed = _run(policy, program, params, Invalidate())
            normal = _recounted_run(policy, kernel, window, latency, pipelined, mode)
            assert _record(recomputed) == normal


def _requests_mask_calls(monkeypatch):
    """Issue step number -> calls of the wake-up kernel in that step, over
    a steering run of the phased kernel; and the number of issue steps."""
    calls: collections.Counter = collections.Counter()
    steps = 0
    real = WakeupArray.requests_mask

    def counted(self, resource_available, result_available):
        calls[steps] += 1
        return real(self, resource_available, result_available)

    monkeypatch.setattr(WakeupArray, "requests_mask", counted)

    class CountIssue:
        def on_stage(self, proc, stage):
            nonlocal steps
            if stage == "wakeup_select_execute" and not proc.ruu.halted:
                steps += 1

        def on_cycle(self, *args):
            pass

    program = _KERNELS["phased"]
    _, res = _run("steering", program, _params(7, 16, False, "module"), CountIssue())
    assert res.halted
    return steps, calls


def test_idle_issue_steps_are_reused(monkeypatch):
    steps, calls = _requests_mask_calls(monkeypatch)
    assert len(calls) < steps


def test_wakeup_kernel_runs_at_most_once_per_issue_step(monkeypatch):
    """The requests and the resource-blocked count come from one
    evaluation."""
    steps, calls = _requests_mask_calls(monkeypatch)
    assert set(calls.values()) == {1}


def test_wakeup_crosscheck_sees_every_issue_step(monkeypatch):
    """Armed, every step compares both its kernel evaluations with the
    wake-up array's row-loop reference."""
    monkeypatch.setattr("repro.utils.env.CROSSCHECK", True)
    references = []
    real = WakeupArray.requests_reference

    def counted(self, resource_available, result_available):
        references.append(resource_available)
        return real(self, resource_available, result_available)

    monkeypatch.setattr(WakeupArray, "requests_reference", counted)
    steps, calls = _requests_mask_calls(monkeypatch)
    assert len(calls) == steps
    assert len(references) == 2 * steps


def test_availability_crosscheck_sees_every_issue_step(monkeypatch):
    """Armed, every step evaluates, and checks its derived requests against
    a direct evaluation at the Eq. 1 bus."""
    monkeypatch.setattr("repro.utils.env.CROSSCHECK", True)
    steps, calls = _requests_mask_calls(monkeypatch)
    assert len(calls) == steps
    assert set(calls.values()) == {2}
