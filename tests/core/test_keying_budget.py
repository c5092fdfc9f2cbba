"""Python-level calls of a repeat ``job_key`` stay few and flat.

A sweep keys one program under every policy and parameter point, so
keying a program again must not walk it again: the program and the
parameters render their fingerprint texts once and keep them.  As in
``test_cycle_budget.py``, ``call`` events counted with
:func:`sys.setprofile` stand in for time, which a shared host does not
measure reproducibly.

A repeat key of a ``steering`` job (no factory arguments) makes 5 calls on
CPython 3.11: ``job_key`` and ``_canon`` of the factory name, the cycle
budget and the argument dict (its generator is the fifth).  Rebuilding
the whole fingerprint each time made 62, on a 46-word program as on a
172-word one.  The budget is the latest figure plus a margin.
"""

import sys

from repro.core.params import ProcessorParams
from repro.evaluation.batch import job_key, policy_job
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX, synthetic_program

#: Python calls of one repeat ``job_key`` of a ``steering`` job.
CALL_BUDGET = 8


def repeat_key_calls(program) -> int:
    job = policy_job("steering", program, ProcessorParams(reconfig_latency=4))
    key = job_key(job)  # the first key renders the texts
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        again = job_key(job)
    finally:
        sys.setprofile(None)
    assert again == key
    return calls


def test_repeat_key_calls_are_few_and_independent_of_program_length():
    short = synthetic_program(INT_MIX, body_len=24, iterations=20, seed=3)
    long = phased_program(
        [(INT_MIX, 3), (MEM_MIX, 3), (FP_MIX, 3)], body_len=48, seed=1
    )
    assert (len(short), len(long)) == (46, 172)
    counts = [repeat_key_calls(short), repeat_key_calls(long)]
    assert counts[0] == counts[1], counts
    assert counts[0] <= CALL_BUDGET, (
        f"{counts[0]} Python calls per repeat job_key, budget {CALL_BUDGET}"
    )
