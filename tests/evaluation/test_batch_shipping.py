"""What the parallel batch path sends to its workers.

Each pool task carries one whole :class:`SimJob`; equal-content programs
are recognised by content, not by object identity, so they share one job
key and one simulation.  These tests pin that content addressing and the
end-to-end equivalence of the parallel path with the in-process one.
"""

import copy

from repro.core.params import ProcessorParams
from repro.evaluation.batch import SimJob, job_key, run_many
from repro.workloads.kernels import checksum, dot_product
from repro.workloads.kernels_extra import bubble_sort

_PARAMS = ProcessorParams(reconfig_latency=8)


def _steering_jobs(program, n):
    return [
        SimJob(
            "steering", program,
            ProcessorParams(window_size=10, reconfig_latency=4 + i),
        )
        for i in range(n)
    ]


# ------------------------------------------------------------- program keys
def _key(program):
    return job_key(SimJob("steering", program, _PARAMS, max_cycles=50_000))


def test_program_key_is_content_addressed():
    a = checksum(iterations=20).program
    b = checksum(iterations=20).program
    assert a is not b
    assert _key(a) == _key(b)
    assert _key(a) != _key(checksum(iterations=21).program)


# --------------------------------------------------- content-hash grouping
def test_equal_content_programs_share_one_group():
    """Distinct Program objects with identical content collapse into one
    simulation per parameter set."""
    program = dot_product(n=16).program
    clone = copy.deepcopy(program)
    assert clone is not program
    jobs = _steering_jobs(program, 2) + _steering_jobs(clone, 2)
    assert len({job_key(job) for job in jobs}) == 2
    results = run_many(jobs, workers=0)
    assert results[0] is results[2]
    assert results[1] is results[3]
    assert results[0] is not results[1]


# ----------------------------------------------------------------- end to end
def test_parallel_shipping_end_to_end():
    program = checksum(iterations=10).program
    jobs = [
        SimJob("steering", program, _PARAMS, max_cycles=50_000),
        SimJob("ffu-only", program, _PARAMS, max_cycles=50_000),
        SimJob("ffu-only", bubble_sort(n=8).program, _PARAMS,
               max_cycles=50_000),
    ]
    seq = run_many(jobs, workers=0)
    par = run_many(jobs, workers=2)
    for s, p in zip(seq, par):
        assert s.to_dict() == p.to_dict()
