"""Python calls of building a program stay few per word.

Every run of a legacy binary first assembles its source text, encodes the
instructions to words (:attr:`Program.words`) and decodes the words back
(:attr:`Program.decoded`); a served job does it twice, once to key the job
and once to run it.  Each step does one table lookup per token or word
and builds each instruction once.  As in ``test_keying_budget.py``,
events counted with :func:`sys.setprofile` (``call`` and ``c_call``)
stand in for time, which a shared host does not measure reproducibly.

Counted here on CPython 3.11, the 46-word program below took 2 544 calls
to assemble, 384 to encode and 834 to decode (the 172-word one 9 650,
1 476 and 3 132) when every operand went through ``parse_register``,
every mnemonic through ``spec_of`` and every field through
``repro.utils.bitops``.  With the tables they take 1 162, 53 and 237
(4 181, 179 and 867).  The budgets are those figures plus 10%, and the
calls per word of the two programs may differ by at most
:data:`PER_WORD_SPREAD`.
"""

import sys

import pytest

from repro.isa.assembler import assemble
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX, synthetic_program

#: (assemble, words, decoded) calls of the 46-word program.
BUDGET_46 = (1278, 58, 261)
#: (assemble, words, decoded) calls of the 172-word program.
BUDGET_172 = (4599, 197, 954)
#: calls per word may differ by this much between the two programs: the
#: data section and the prologue are a fixed cost per program.
PER_WORD_SPREAD = 2


def count_calls(fn) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def build_calls(program) -> tuple[int, int, int]:
    """Calls to assemble ``program``'s source, encode it and decode it."""
    fresh = assemble(program.source)
    built = count_calls(lambda: assemble(program.source))
    encoded = count_calls(lambda: fresh.words)
    decoded = count_calls(lambda: fresh.decoded)
    return built, encoded, decoded


@pytest.fixture(scope="module")
def counts():
    short = synthetic_program(INT_MIX, body_len=24, iterations=20, seed=3)
    long = phased_program(
        [(INT_MIX, 3), (MEM_MIX, 3), (FP_MIX, 3)], body_len=48, seed=1
    )
    assert (len(short), len(long)) == (46, 172)
    return {46: build_calls(short), 172: build_calls(long)}


def test_build_calls_within_budget(counts):
    for words, budget in ((46, BUDGET_46), (172, BUDGET_172)):
        for step, got, allowed in zip(("assemble", "words", "decoded"),
                                      counts[words], budget):
            assert got <= allowed, (
                f"{step} of the {words}-word program made {got} Python calls, "
                f"budget {allowed}"
            )


def test_build_calls_grow_with_the_word_count_only(counts):
    for step in range(3):
        per_word = [counts[n][step] / n for n in (46, 172)]
        assert abs(per_word[0] - per_word[1]) <= PER_WORD_SPREAD, (step, per_word)
