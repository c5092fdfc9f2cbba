"""Tests for the batch simulation engine."""

import pickle
import tracemalloc

import pytest

from repro.core.baselines import policy_catalogue
from repro.core.params import ProcessorParams
from repro.errors import ConfigurationError, SimulationError
from repro.evaluation.batch import (
    FACTORY_NAMES,
    ResultCache,
    SimJob,
    execute_job,
    job_key,
    policy_job,
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


@pytest.mark.parametrize("factory, kwargs", [
    ("steering", {"use_exat_metric": True}),  # misspelled: silently ignored once
    ("steering", {"use_exact_metric": True}),  # a ProcessorParams field
    ("steering-traced", {"trace_limit": 16}),
    ("random", {"perod": 100}),
    ("static", {}),  # missing its configuration
    ("steering-basis", {}),
    ("reference", {"max_instructions": 10, "budget": 5}),
    ("reference", {"dmem_size": 8_000_000_000}),  # a constant of the reference run
    ("reference", {"entry": "loop"}),
    ("random", {"period": "abc"}),  # the type of the builder's default
    ("random", {"seed": 1.5}),
    ("demand", {"smoothing": True}),
    ("oracle", {"lookahead": None}),
])
def test_unknown_or_missing_factory_arguments_rejected(factory, kwargs):
    with pytest.raises(ConfigurationError, match=repr(factory)):
        SimJob(factory, checksum(iterations=5).program, kwargs=kwargs)


def test_factory_arguments_are_the_builders_keyword_parameters():
    prog = checksum(iterations=5).program
    SimJob("random", prog, kwargs={"period": 100, "seed": 3})
    SimJob("oracle", prog, kwargs={"lookahead": 8, "max_instructions": 10_000})
    SimJob("demand", prog, kwargs={"smoothing": 0.2, "improvement_margin": 0.1})
    SimJob("demand", prog, kwargs={"smoothing": 1})  # an int fits a float
    SimJob("reference", prog, kwargs={"max_instructions": 10_000})
    SimJob("static", prog, kwargs={"config": PREDEFINED_CONFIGS[0]})
    SimJob("steering-basis", prog, kwargs={"configs": list(PREDEFINED_CONFIGS)})


@pytest.mark.parametrize("name", sorted(policy_catalogue()))
def test_policy_job_runs_the_catalogue_builder(name):
    prog = checksum(iterations=5).program
    direct = policy_catalogue()[name](prog, _PARAMS).run(max_cycles=50_000)
    job = policy_job(name, prog, _PARAMS, 50_000)
    assert job.label == name
    assert execute_job(job).to_dict() == direct.to_dict()


def test_policy_job_rejects_unknown_names():
    with pytest.raises(ConfigurationError, match="static-nosuch"):
        policy_job("static-nosuch", checksum(iterations=5).program)


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
    # a one-instruction budget is too small for the reference run
    broken = SimJob("reference", saxpy(n=8).program, kwargs={"max_instructions": 1})
    with pytest.raises(SimulationError):
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
    assert par_cache.stats()["memory_entries"] == 3
    assert seq_cache.stats()["memory_entries"] == 3
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


# ------------------------------------------------------------ observed jobs
def _traced(max_cycles):
    """A steering-traced run of one steady loop, its payload's pickled
    size and the tracemalloc peak of running it."""
    job = SimJob("steering-traced", checksum(iterations=20_000).program,
                 max_cycles=max_cycles)
    tracemalloc.start()
    try:
        payload = execute_job(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return payload, len(pickle.dumps(payload)), peak


def test_traced_job_grows_with_decisions_not_cycles():
    """Four times the cycles of a settled loop add no steering decision,
    so they add next to nothing to the payload or the peak memory (a
    per-cycle record would add about 120 B a cycle, over 1 MB here)."""
    execute_job(SimJob("steering-traced", checksum(iterations=5).program))
    short, short_bytes, short_peak = _traced(3_000)
    long, long_bytes, long_peak = _traced(12_000)
    assert short["result"].cycles == 3_000 and long["result"].cycles == 12_000
    assert set(short) == {"result", "selection_runs"}
    # the same decisions; only the last run, the settled one, is longer
    starts = [run[:2] for run in short["selection_runs"]]
    assert [run[:2] for run in long["selection_runs"]] == starts
    assert long_bytes - short_bytes < 64
    assert long_peak - short_peak < 64 * 1024
