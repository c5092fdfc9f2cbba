"""Job keys are byte-identical to the fingerprint formula they replaced.

:func:`job_key` hashes texts that the program and the parameters render
once and keep.  The keys feed the goldens spec hash and name every cache
blob, so each must equal the SHA-256 of
``repr(_canon((factory, program, params, max_cycles, kwargs)))``, the
formula the keys were defined by: :func:`reference_key` keeps it, with
the program and parameter reductions ``_canon`` made itself before the
two types reduced themselves.  The committed digests pin ``_canon``.
"""

import copy
import hashlib
import pickle
from dataclasses import fields

import pytest

from repro.core.baselines import policy_recipes
from repro.core.params import ProcessorParams
from repro.evaluation import batch
from repro.evaluation.batch import SimJob, job_key, policy_job
from repro.fabric.configuration import PREDEFINED_CONFIGS
from repro.isa.futypes import FUType
from repro.isa.program import Program
from repro.verify import fuzz
from repro.verify.generator import GeneratorConfig
from repro.workloads.kernels import all_kernels, checksum, fir_filter, memcpy, saxpy


def reference_canon(value):
    if isinstance(value, Program):
        return (
            "program",
            value.words,
            bytes(value.data),
            tuple(sorted(value.labels.items())),
            tuple(sorted(value.data_labels.items())),
        )
    if isinstance(value, ProcessorParams):
        return ("params",) + tuple(
            (f.name, batch._canon(getattr(value, f.name))) for f in fields(value)
        )
    if isinstance(value, tuple):
        return ("seq",) + tuple(reference_canon(v) for v in value)
    return batch._canon(value)


def reference_key(job: SimJob) -> str:
    fingerprint = reference_canon(
        (job.factory, job.program, job.params, job.max_cycles, job.kwargs)
    )
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


PARAMS = [
    None,
    ProcessorParams(),
    ProcessorParams(reconfig_latency=4, window_size=11),
    ProcessorParams(
        reconfig_mode="difference",
        pipelined_scheduling=True,
        use_trace_cache=False,
        ffu_counts={FUType.LSU: 2, FUType.INT_ALU: 1, FUType.FP_MDU: 0},
    ),
    ProcessorParams(ffu_counts={}),
]


def _pinned_jobs():
    """(job, its key) — the keys were computed before the program and the
    parameters kept their fingerprint texts."""
    return [
        (policy_job("steering", checksum().program),
         "0ef30de1626486b13b08101013c639441dcf8414249c2130b35d622bb8069b0a"),
        (policy_job("static-memory", saxpy(n=8).program,
                    ProcessorParams(reconfig_latency=8), max_cycles=50_000),
         "a402e173ed579f5e41e6052a533ef0775ba0126fc372364b67614c0e179b7ca7"),
        (SimJob("steering-telemetry", memcpy(n=16).program,
                ProcessorParams(ffu_counts={FUType.INT_ALU: 2, FUType.LSU: 1})),
         "a05a1191da63ad19f0505fd74db48f4aaf4c2ea97d2ba1a41fe1b78e67b1f662"),
        (SimJob("random", fir_filter().program,
                ProcessorParams(window_size=11, reconfig_mode="difference"),
                max_cycles=20_000, kwargs={"seed": 3, "period": 50}),
         "f6b116d70a9c5070cb8acd2a1405da45eba04713c3ec949398dd767abb684aa8"),
    ]


@pytest.mark.parametrize("index", range(4))
def test_committed_digests(index):
    job, key = _pinned_jobs()[index]
    assert job_key(job) == key
    assert reference_key(job) == key


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.name)
def test_every_catalogue_policy_on_each_kernel(kernel):
    for params in PARAMS[:3]:
        for name in policy_recipes():
            job = policy_job(name, kernel.program, params)
            assert job_key(job) == reference_key(job), (kernel.name, name, params)


@pytest.mark.parametrize("params", PARAMS)
def test_every_params_point(params):
    program = checksum(iterations=5).program
    for factory in ("steering", "steering-traced", "steering-telemetry"):
        job = SimJob(factory, program, params, max_cycles=30_000)
        assert job_key(job) == reference_key(job)


def test_configuration_arguments():
    program = saxpy(n=8).program
    jobs = [
        SimJob("static", program, PARAMS[2], kwargs={"config": config})
        for config in PREDEFINED_CONFIGS
    ]
    jobs.append(SimJob("steering-basis", program, PARAMS[3],
                       kwargs={"configs": list(PREDEFINED_CONFIGS[:2])}))
    jobs.append(SimJob("reference", program, kwargs={"max_instructions": 5000}))
    for job in jobs:
        assert job_key(job) == reference_key(job)


def test_every_job_of_a_fuzz_round(monkeypatch):
    jobs = []
    run_many = fuzz.run_many

    def kept(batch_jobs, *args, **kwargs):
        jobs.extend(batch_jobs)
        return run_many(batch_jobs, *args, **kwargs)

    monkeypatch.setattr(fuzz, "run_many", kept)
    shape = GeneratorConfig(blocks=2, body_len=10, max_iterations=4)
    report = fuzz.run_fuzz(7, iterations=4, base_config=shape, shrink=False)
    assert report.iterations_run == 4
    assert len({id(job.program) for job in jobs}) == 4
    for job in jobs:
        assert job_key(job) == reference_key(job)


# ---------------------------------------------------- the kept texts stay put
def test_copies_key_equal_and_carry_no_text():
    program = fir_filter().program
    params = PARAMS[3]
    job = SimJob("steering", program, params)
    key = job_key(job)
    assert "fingerprint" in vars(program) and "fingerprint" in vars(params)
    for copied in (pickle.loads(pickle.dumps(job)), copy.deepcopy(job)):
        assert "fingerprint" not in vars(copied.program)
        assert "fingerprint" not in vars(copied.params)
        assert copied.params == params
        assert job_key(copied) == key
