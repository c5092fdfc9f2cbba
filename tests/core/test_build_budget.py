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

``decode`` returns one shared instruction per word that a live program
holds, so what decoding costs depends on what else the process holds.
The counts are taken in a fresh interpreter: the ``decoded`` budgets
above are those of a cold decode (no live program holds a word of the
program), and :data:`WARM_DECODE_BUDGET` is that of a second program
with the same words while the first is alive.  Counted with the shared
table: cold 237 and 849 (the 172-word program repeats 6 words), warm 99
and 351.
"""

import json
import sys

import pytest

from repro.isa.assembler import assemble
from repro.isa.encoding import _LIVE
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX, synthetic_program
from tests.fresh import fresh_json

#: (assemble, words, decoded) calls of the 46-word program.
BUDGET_46 = (1278, 58, 261)
#: (assemble, words, decoded) calls of the 172-word program.
BUDGET_172 = (4599, 197, 954)
#: warm ``decoded`` calls of the 46- and the 172-word program.
WARM_DECODE_BUDGET = {46: 109, 172: 386}
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


def build_calls(program) -> tuple[int, int, int, int]:
    """Calls to assemble ``program``'s source, encode it, decode it cold
    and decode a second copy of it warm."""
    fresh = assemble(program.source)
    built = count_calls(lambda: assemble(program.source))
    encoded = count_calls(lambda: fresh.words)
    assert not _LIVE, "a cold decode needs a table no program holds"
    cold = count_calls(lambda: fresh.decoded)
    again = assemble(program.source)
    again.words
    warm = count_calls(lambda: again.decoded)
    return built, encoded, cold, warm


def programs():
    short = synthetic_program(INT_MIX, body_len=24, iterations=20, seed=3)
    long = phased_program(
        [(INT_MIX, 3), (MEM_MIX, 3), (FP_MIX, 3)], body_len=48, seed=1
    )
    return short, long


@pytest.fixture(scope="module")
def counts():
    # a fresh interpreter: no program of another test holds a word
    counts = fresh_json("tests.core.test_build_budget")
    return {int(n): tuple(c) for n, c in counts.items()}


def test_build_calls_within_budget(counts):
    for words, budget in ((46, BUDGET_46), (172, BUDGET_172)):
        for step, got, allowed in zip(("assemble", "words", "decoded"),
                                      counts[words], budget):
            assert got <= allowed, (
                f"{step} of the {words}-word program made {got} Python calls, "
                f"budget {allowed}"
            )


def test_warm_decode_within_budget(counts):
    for words, allowed in WARM_DECODE_BUDGET.items():
        got = counts[words][3]
        assert got <= allowed, (
            f"warm decode of the {words}-word program made {got} Python calls, "
            f"budget {allowed}"
        )


def test_build_calls_grow_with_the_word_count_only(counts):
    for step in range(4):
        per_word = [counts[n][step] / n for n in (46, 172)]
        assert abs(per_word[0] - per_word[1]) <= PER_WORD_SPREAD, (step, per_word)


if __name__ == "__main__":
    # one line of JSON: word count -> (assemble, words, cold, warm) calls;
    # each program's copies are dropped before the next one's cold decode
    print(json.dumps({len(p): build_calls(p) for p in programs()}))
