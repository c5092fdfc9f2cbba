"""Scalar/vector engine equivalence: the ISSUE 6 acceptance gate.

The lock-step lane engine must be a pure performance transformation: for
every vector-eligible job, :func:`run_vector_batch` returns the *same*
``SimulationResult`` — compared bit-for-bit through ``to_dict()`` — that
the scalar engine's factory produces.  These tests pin that across the
full ``policy_catalogue()`` x a small workload grid, heterogeneous
batches, and the lane-masking edge cases (single lane, ragged finish
times, a lane cut off mid-flight, a batch where no lane ever halts).
"""

import gc
import weakref

import pytest

from repro.core import processor as processor_module
from repro.core.baselines import policy_catalogue
from repro.core.params import ProcessorParams
from repro.errors import SimulationError
from repro.evaluation.batch import SimJob, execute_job
from repro.evaluation.vector import (
    VECTOR_FACTORIES,
    run_vector_batch,
    vector_eligible,
)
from repro.fabric.configuration import PREDEFINED_CONFIGS
from repro.isa.assembler import assemble
from repro.workloads.kernels import checksum, dot_product

_PARAMS = ProcessorParams(window_size=12, reconfig_latency=6)

#: a program that never reaches ``halt`` — every lane runs to its budget.
_SPIN = """
main:   addi x1, x1, 1
        j    main
"""


def _catalogue_jobs(program, params=_PARAMS, max_cycles=200_000):
    """One SimJob per ``policy_catalogue()`` entry (+ exact-metric steering)."""
    jobs = []
    for name in sorted(policy_catalogue()):
        if name.startswith("static-"):
            cfg = next(
                c for c in PREDEFINED_CONFIGS if c.name == name[len("static-"):]
            )
            jobs.append(
                SimJob(
                    "static", program, params, max_cycles,
                    kwargs={"config": cfg}, label=name,
                )
            )
        else:
            jobs.append(SimJob(name, program, params, max_cycles, label=name))
    jobs.append(
        SimJob(
            "steering", program, params, max_cycles,
            kwargs={"use_exact_metric": True}, label="steering-exact",
        )
    )
    return jobs


def _assert_batch_matches_scalar(jobs, **vector_kwargs):
    vector = run_vector_batch(jobs, **vector_kwargs)
    scalar = [execute_job(job) for job in jobs]
    for job, v, s in zip(jobs, vector, scalar):
        assert v.to_dict() == s.to_dict(), job.label or job.factory


# ------------------------------------------------ catalogue x workload grid
@pytest.mark.parametrize(
    "workload",
    [checksum(iterations=20), dot_product(n=24)],
    ids=["checksum", "dot_product"],
)
def test_catalogue_bit_identical(workload):
    """Every catalogue policy, one heterogeneous batch per workload."""
    jobs = _catalogue_jobs(workload.program)
    assert all(vector_eligible(j.factory, j.params) for j in jobs)
    _assert_batch_matches_scalar(jobs)


def test_crosscheck_mode_agrees():
    """The per-cycle shadow crosscheck passes and changes no results."""
    jobs = _catalogue_jobs(checksum(iterations=5).program)
    _assert_batch_matches_scalar(jobs, crosscheck=True)


def test_mixed_window_sizes_in_one_batch():
    """Lanes with different window geometries share one (padded) bank."""
    program = checksum(iterations=15).program
    jobs = [
        SimJob(
            "steering", program,
            ProcessorParams(window_size=w, reconfig_latency=4 + w),
        )
        for w in (5, 9, 16, 24)
    ]
    _assert_batch_matches_scalar(jobs)


# ------------------------------------------------------- lane-masking edges
def test_single_lane_batch():
    """N=1: the degenerate batch is still exactly the scalar result."""
    jobs = [SimJob("steering", dot_product(n=16).program, _PARAMS)]
    _assert_batch_matches_scalar(jobs)


def test_ragged_finish_times():
    """Lanes retiring at very different cycles never disturb survivors."""
    program = checksum(iterations=20).program
    budgets = [150, 400, 200_000, 1_000, 200_000]
    jobs = [
        SimJob("steering", program, _PARAMS, max_cycles=budget)
        for budget in budgets
    ]
    _assert_batch_matches_scalar(jobs)


def test_lane_cut_off_mid_flight():
    """A budget expiring with instructions in flight masks the lane out
    cleanly; the surviving lanes run to completion untouched."""
    program = checksum(iterations=20).program
    jobs = [
        SimJob("steering", program, _PARAMS, max_cycles=73),
        SimJob("steering", program, _PARAMS),
        SimJob("ffu-only", program, _PARAMS),
    ]
    vector = run_vector_batch(jobs)
    assert not vector[0].halted and vector[0].cycles == 73
    assert vector[1].halted and vector[2].halted
    scalar = [execute_job(job) for job in jobs]
    for v, s in zip(vector, scalar):
        assert v.to_dict() == s.to_dict()


def test_deadlocked_batch_runs_to_budget():
    """A program that never halts: every lane is cut at its own budget."""
    program = assemble(_SPIN)
    jobs = [
        SimJob("steering", program, _PARAMS, max_cycles=300),
        SimJob("steering", program, _PARAMS, max_cycles=900),
        SimJob("ffu-only", program, _PARAMS, max_cycles=450),
    ]
    vector = run_vector_batch(jobs)
    assert [r.halted for r in vector] == [False, False, False]
    assert [r.cycles for r in vector] == [300, 900, 450]
    scalar = [execute_job(job) for job in jobs]
    for v, s in zip(vector, scalar):
        assert v.to_dict() == s.to_dict()


# ------------------------------------------------------------- guard rails
def test_rejects_ineligible_factory():
    program = dot_product(n=16).program
    assert "reference" not in VECTOR_FACTORIES
    jobs = [SimJob("reference", program)]
    with pytest.raises(SimulationError, match="not vector-eligible"):
        run_vector_batch(jobs)


def test_rejects_pipelined_scheduling_params():
    program = dot_product(n=16).program
    params = ProcessorParams(pipelined_scheduling=True)
    assert not vector_eligible("steering", params)
    with pytest.raises(SimulationError, match="not vector-eligible"):
        run_vector_batch([SimJob("steering", program, params)])


def test_rejects_nonpositive_budget():
    job = SimJob("steering", dot_product(n=16).program, _PARAMS)
    job.max_cycles = 0
    with pytest.raises(SimulationError, match="max_cycles"):
        run_vector_batch([job])


def test_empty_batch_is_empty():
    assert run_vector_batch([]) == []


def test_lane_processors_freed_without_cyclic_gc(monkeypatch):
    """No lane Processor outlives the batch while the cyclic GC is off:
    a finished lane's reference cycle through its wake-up array is broken,
    so plain reference counting frees it."""
    created = []
    init = processor_module.Processor.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(weakref.ref(self))

    monkeypatch.setattr(processor_module.Processor, "__init__", tracking_init)
    jobs = _catalogue_jobs(checksum(iterations=5).program, max_cycles=5_000)
    jobs[0] = SimJob("steering", jobs[0].program, _PARAMS, max_cycles=40)
    gc.collect()
    gc.disable()
    try:
        results = run_vector_batch(jobs)
        assert len(created) == len(jobs)
        alive = [ref for ref in created if ref() is not None]
    finally:
        gc.enable()
    assert results and not alive
