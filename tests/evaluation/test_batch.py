"""Tests for the batch simulation engine."""

import pickle

import pytest

from repro.core.params import ProcessorParams
from repro.errors import ConfigurationError
from repro.evaluation.batch import (
    FACTORY_NAMES,
    ResultCache,
    SimJob,
    execute_job,
    job_key,
    run_many,
)
from repro.fabric.configuration import PREDEFINED_CONFIGS
from repro.workloads.kernels import checksum, memcpy, saxpy

_PARAMS = ProcessorParams(reconfig_latency=8)


def _jobs():
    return [
        SimJob("steering", checksum(iterations=20).program, _PARAMS,
               max_cycles=50_000, label="checksum/steering"),
        SimJob("ffu-only", memcpy(n=16).program, _PARAMS,
               max_cycles=50_000, label="memcpy/ffu"),
        SimJob("static", saxpy(n=8).program, _PARAMS, max_cycles=50_000,
               kwargs={"config": PREDEFINED_CONFIGS[0]}, label="saxpy/static"),
    ]


# ------------------------------------------------------------------- job spec
def test_unknown_factory_rejected():
    with pytest.raises(ConfigurationError):
        SimJob("no-such-policy", checksum(iterations=5).program)


def test_factory_registry_names():
    for name in ("steering", "ffu-only", "static", "oracle", "reference"):
        assert name in FACTORY_NAMES


# ---------------------------------------------------------------- content key
def test_job_key_is_content_addressed():
    a, b = checksum(iterations=20).program, checksum(iterations=20).program
    assert a is not b
    j1 = SimJob("steering", a, _PARAMS, max_cycles=50_000, label="one")
    j2 = SimJob("steering", b, _PARAMS, max_cycles=50_000, label="two")
    assert job_key(j1) == job_key(j2)  # labels don't change the key


def test_job_key_discriminates():
    prog = checksum(iterations=20).program
    base = SimJob("steering", prog, _PARAMS, max_cycles=50_000)
    assert job_key(base) != job_key(
        SimJob("ffu-only", prog, _PARAMS, max_cycles=50_000)
    )
    assert job_key(base) != job_key(
        SimJob("steering", prog, _PARAMS, max_cycles=60_000)
    )
    assert job_key(base) != job_key(
        SimJob("steering", prog, ProcessorParams(reconfig_latency=16),
               max_cycles=50_000)
    )
    assert job_key(base) != job_key(
        SimJob("steering", checksum(iterations=21).program, _PARAMS,
               max_cycles=50_000)
    )


# -------------------------------------------------------------------- running
@pytest.mark.parametrize("workers", [0, 2])
def test_failing_factory_raises_on_both_paths(workers):
    broken = SimJob("static", saxpy(n=8).program, _PARAMS, max_cycles=50_000)
    with pytest.raises(KeyError):  # the static factory needs a "config"
        run_many([_jobs()[1], broken], workers=workers)


def test_parallel_matches_sequential():
    def run(workers):
        seen = []
        jobs = _jobs() + [_jobs()[0]]  # one duplicate: three unique jobs
        cache = ResultCache()
        results = run_many(
            jobs, workers=workers, cache=cache,
            progress=lambda done, total, job: seen.append((done, total)),
        )
        return results, seen, cache

    seq, seq_seen, seq_cache = run(0)
    par, par_seen, par_cache = run(2)
    assert len(seq) == len(par) == 4
    for s, p in zip(seq, par):
        assert s.to_dict() == p.to_dict()
    assert par[0] is par[3]  # the duplicate was simulated once
    assert par_seen == seq_seen == [(n, 4) for n in range(1, 5)]
    assert len(par_cache) == len(seq_cache) == 3
    assert par_cache.misses == seq_cache.misses == 4


def test_catalogue_jobs_survive_pickling():
    # a pool worker receives its job by pickle under any start method
    prog = checksum(iterations=5).program
    jobs = [
        SimJob("static", prog, _PARAMS, kwargs={"config": cfg})
        for cfg in PREDEFINED_CONFIGS
    ]
    extra = {
        "steering-basis": {"configs": list(PREDEFINED_CONFIGS[:2])},
        "steering-traced": {"trace_limit": 16},
        "reference": {"max_instructions": 10_000},
    }
    jobs += [
        SimJob(name, prog, _PARAMS, kwargs=extra.get(name, {}))
        for name in FACTORY_NAMES
        if name != "static"
    ]
    for job in jobs:
        assert job_key(pickle.loads(pickle.dumps(job))) == job_key(job)


def test_keying_and_building_a_processor_encode_the_program_once(monkeypatch):
    import repro.isa.program as program_mod
    from repro.core.processor import Processor

    calls = []

    def counting_encode(instr):
        calls.append(instr)
        return real_encode(instr)

    real_encode = program_mod.encode
    monkeypatch.setattr(program_mod, "encode", counting_encode)
    prog = checksum(iterations=5).program
    key = job_key(SimJob("steering", prog, _PARAMS))
    Processor(prog, params=_PARAMS)
    Processor(prog, params=_PARAMS)
    assert job_key(SimJob("ffu-only", prog, _PARAMS)) != key
    assert len(calls) == len(prog)


def test_pickled_job_carries_no_encoding():
    from repro.core.processor import Processor

    job = SimJob("steering", checksum(iterations=5).program, _PARAMS)
    fresh = len(pickle.dumps(job))
    key = job_key(job)
    # keying encodes the program without writing into its instructions
    assert len(pickle.dumps(job)) == fresh
    # the words and the decode the processor fetches stay behind
    Processor(job.program, params=_PARAMS)
    assert len(pickle.dumps(job)) == fresh
    copy = pickle.loads(pickle.dumps(job))
    assert "words" not in vars(copy.program)
    assert job_key(copy) == key
    assert copy.program.words == job.program.words


def test_results_keep_submission_order():
    results = run_many(_jobs(), workers=0)
    assert results[0].policy == "steering"
    assert results[1].policy == "ffu-only"
    assert results[2].policy.startswith("static-")


def test_within_batch_dedup():
    job = _jobs()[0]
    twice = [job, _jobs()[0]]
    results = run_many(twice, workers=0)
    assert results[0] is results[1]  # one simulation, shared result


def test_cache_hits_on_resubmission():
    cache = ResultCache()
    first = run_many(_jobs(), workers=0, cache=cache)
    assert cache.hits == 0 and cache.misses == 3
    second = run_many(_jobs(), workers=0, cache=cache)
    assert cache.hits == 3
    for a, b in zip(first, second):
        assert a.to_dict() == b.to_dict()


def test_disk_cache_survives_instances(tmp_path):
    jobs = _jobs()[:1]
    cache = ResultCache(tmp_path)
    run_many(jobs, workers=0, cache=cache)
    fresh = ResultCache(tmp_path)  # new instance, same directory
    again = run_many(_jobs()[:1], workers=0, cache=fresh)
    assert fresh.hits == 1 and fresh.misses == 0
    assert again[0].halted


def test_progress_callback():
    seen = []
    run_many(
        _jobs(),
        workers=0,
        progress=lambda done, total, job: seen.append((done, total, job.label)),
    )
    assert [s[0] for s in seen] == [1, 2, 3]
    assert all(s[1] == 3 for s in seen)
    assert {s[2] for s in seen} == {
        "checksum/steering", "memcpy/ffu", "saxpy/static"
    }


def test_execute_job_reference_factory():
    job = SimJob(
        "reference",
        checksum(iterations=5).program,
        kwargs={"max_instructions": 10_000},
    )
    reference = execute_job(job)
    assert reference.trace  # dynamic unit-type trace is non-empty
