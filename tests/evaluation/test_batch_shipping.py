"""The parallel batch path must ship each program image once per worker.

PR 1 submitted whole :class:`SimJob` objects to the pool, so a 1000-job
sweep over one workload pickled the program image a thousand times.  The
shipping rework replaces the per-job payload with a content-hash reference
and installs the distinct programs through the pool initializer — these
tests pin both the size of what crosses the process boundary and the
end-to-end equivalence of the parallel path.
"""

import copy
import pickle

import pytest

from repro.core.params import ProcessorParams
from repro.errors import ConfigurationError
from repro.evaluation.batch import (
    SimJob,
    _execute_shipped,
    _group_by_program,
    _init_worker,
    _prepare_shipment,
    _WORKER_PROGRAMS,
    execute_job,
    job_key,
    program_key,
    run_many,
)
from repro.workloads.kernels import checksum, dot_product
from repro.workloads.kernels_extra import bubble_sort

_PARAMS = ProcessorParams(reconfig_latency=8)


def _dedup_distinct_jobs(n):
    """``n`` jobs with distinct content keys over ONE shared program."""
    program = checksum(iterations=20).program
    return [
        SimJob(
            "steering",
            program,
            _PARAMS,
            max_cycles=50_000 + i,  # distinct fingerprint per job
            label=f"sweep/{i}",
        )
        for i in range(n)
    ]


# ------------------------------------------------------------- program keys
def test_program_key_is_content_addressed():
    a = checksum(iterations=20).program
    b = checksum(iterations=20).program
    assert a is not b
    assert program_key(a) == program_key(b)
    assert program_key(a) != program_key(checksum(iterations=21).program)


# --------------------------------------------------- content-hash grouping
def _steering_jobs(program, n):
    return [
        SimJob(
            "steering", program,
            ProcessorParams(window_size=10, reconfig_latency=4 + i),
        )
        for i in range(n)
    ]


def _unique(jobs):
    return [(f"k{i}", job) for i, job in enumerate(jobs)]


def test_equal_content_programs_share_one_group():
    """Distinct Program objects with identical content collapse into one
    group, rebound to one canonical instance."""
    program = dot_product(n=16).program
    clone = copy.deepcopy(program)
    jobs = _steering_jobs(program, 2) + _steering_jobs(clone, 2)
    programs, groups = _group_by_program(_unique(jobs))
    assert len(groups) == 1
    (pkey, pairs), = groups.items()
    canonical = programs[pkey]
    assert all(job.program is canonical for _, job in pairs)


def test_distinct_programs_stay_separate():
    a, b = dot_product(n=16).program, checksum(iterations=5).program
    _, groups = _group_by_program(
        _unique(_steering_jobs(a, 4) + _steering_jobs(b, 4))
    )
    assert len(groups) == 2


# --------------------------------------------------------------- payload size
def test_thousand_job_sweep_ships_program_once(monkeypatch):
    jobs = _dedup_distinct_jobs(1000)
    unique = [(job_key(j), j) for j in jobs]
    assert len({k for k, _ in unique}) == 1000  # genuinely dedup-distinct

    programs, shipped = _prepare_shipment(unique)

    # one distinct program for the whole sweep, however many jobs
    assert len(programs) == 1
    assert len(shipped) == 1000

    # call-count assertion: serialising all thousand payloads pickles the
    # Program zero times; the initializer dict pickles it exactly once
    Program = type(jobs[0].program)
    calls = {"n": 0}
    original = Program.__reduce_ex__

    def counting(self, protocol):
        calls["n"] += 1
        return original(self, protocol)

    monkeypatch.setattr(Program, "__reduce_ex__", counting)
    pickle.dumps([payload for _, payload in shipped])
    assert calls["n"] == 0
    pickle.dumps(programs)
    assert calls["n"] == 1

    # and dropping the program makes every payload strictly lighter than a
    # naive full-SimJob submission
    monkeypatch.undo()
    naive_job_bytes = len(pickle.dumps(jobs[0]))
    payload_bytes = max(len(pickle.dumps(p)) for _, p in shipped)
    assert payload_bytes < naive_job_bytes


def test_payload_size_independent_of_program_size():
    small = SimJob("ffu-only", checksum(iterations=5).program, _PARAMS,
                   max_cycles=50_000)
    big = SimJob("ffu-only", bubble_sort(n=64).program, _PARAMS,
                 max_cycles=50_000)
    _, shipped = _prepare_shipment(
        [(job_key(small), small), (job_key(big), big)]
    )
    sizes = [len(pickle.dumps(p)) for _, p in shipped]
    assert abs(sizes[0] - sizes[1]) < 128  # only the 64-char hash differs


# ------------------------------------------------------------- worker round-trip
def test_shipped_execution_matches_execute_job():
    job = SimJob("steering", checksum(iterations=10).program, _PARAMS,
                 max_cycles=50_000)
    programs, shipped = _prepare_shipment([(job_key(job), job)])
    saved = dict(_WORKER_PROGRAMS)
    _WORKER_PROGRAMS.clear()
    try:
        _init_worker(programs)
        _, payload = shipped[0]
        assert _execute_shipped(payload).to_dict() == execute_job(job).to_dict()
    finally:
        _WORKER_PROGRAMS.clear()
        _WORKER_PROGRAMS.update(saved)


def test_unshipped_program_is_an_error():
    job = SimJob("steering", checksum(iterations=10).program, _PARAMS,
                 max_cycles=50_000)
    _, shipped = _prepare_shipment([(job_key(job), job)])
    saved = dict(_WORKER_PROGRAMS)
    _WORKER_PROGRAMS.clear()
    try:
        with pytest.raises(ConfigurationError):
            _execute_shipped(shipped[0][1])
    finally:
        _WORKER_PROGRAMS.update(saved)


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
