"""One decoded instruction per distinct live word.

:func:`repro.isa.encoding.decode` returns the instruction it built for a
word for as long as something holds that instruction, so every live
program shares one object per word, with its warmed caches.  The table
holds its instructions weakly: it keeps nothing that no live program
holds, and it never stores a refused word.

Decoding the 40 synthetic programs of :func:`footprint` (1 840 words,
883 distinct) left 993 704 bytes traced by :mod:`tracemalloc` when every
program decoded its own instructions, and 609 512 with the shared table
(CPython 3.11, a fresh interpreter).  :data:`FOOTPRINT_BUDGET` is the
shared figure plus 10%.
"""

import gc
import json
import pickle
import random
import sys
import threading
import tracemalloc
from dataclasses import astuple

import pytest

from repro.errors import DisassemblerError
from repro.isa.encoding import _LIVE, _forget, _Held, decode
from repro.workloads.kernels import kernel_factories
from repro.workloads.synthetic import (
    BALANCED_MIX, FP_MIX, INT_MIX, MEM_MIX, synthetic_program,
)
from tests.fresh import fresh_json

#: traced bytes of decoding :func:`footprint`'s 40 programs.
FOOTPRINT_BUDGET = 670_463

MIXES = (INT_MIX, MEM_MIX, FP_MIX, BALANCED_MIX)


def synthetic_programs(count: int) -> list:
    return [
        synthetic_program(MIXES[seed % 4], body_len=24, iterations=10, seed=seed)
        for seed in range(count)
    ]


@pytest.fixture(scope="module")
def programs():
    kernels = [factory() for factory in kernel_factories().values()]
    return [k.program for k in kernels] + synthetic_programs(20)


def test_one_object_per_distinct_live_word(programs):
    seen = {}
    for program in programs:
        for word, instr in zip(program.words, program.decoded):
            assert seen.setdefault(word, instr) is instr, hex(word)
    # the programs share words (640 distinct of 1 171), or the test
    # shows nothing
    assert len(seen) < sum(len(p.words) for p in programs) * 0.6


def test_decoded_is_the_decode_of_each_word(programs):
    for program in programs:
        for word, instr in zip(program.words, program.decoded):
            again = decode(word)
            assert again == instr and again is instr


@pytest.mark.parametrize("word", [-1, 1 << 32, 0, 0x7F << 25, 0xFE00_0001])
def test_refused_words_are_never_stored(word):
    for _ in range(2):
        with pytest.raises(DisassemblerError):
            decode(word)
    assert word not in _LIVE


def test_pickled_program_decodes_onto_the_shared_objects(programs):
    for program in programs:
        again = pickle.loads(pickle.dumps(program))
        assert "decoded" not in again.__dict__
        assert all(a is b for a, b in zip(again.decoded, program.decoded))


def test_threads_decoding_one_word_set_leave_no_stale_entry():
    # words no other program holds: a seeded draw of decodable words
    rng = random.Random(34)
    words = []
    while len(words) < 400:
        word = rng.getrandbits(32)
        try:
            fields = astuple(decode(word))
        except DisassemblerError:
            continue
        words.append((word, fields))
    wrong = []

    def worker(seed: int) -> None:
        mine = random.Random(seed)
        for _ in range(20):
            batch = mine.sample(words, len(words))
            held = [decode(word) for word, _ in batch]
            wrong.extend(
                hex(word) for (word, fields), instr in zip(batch, held)
                if astuple(instr) != fields
            )

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    gc.collect()
    assert not any(word in _LIVE for word, _ in words)
    assert all(held() is not None for held in list(_LIVE.values()))


class _Referent:
    """Something a weak reference can hold."""


def test_a_dead_reference_removes_only_itself():
    word = 0x1234
    alive = _Referent()
    newer = _Held(alive)
    dead = _Held(_Referent())
    assert dead() is None
    # a later decode of the word stored a newer, live reference
    table = {word: newer}
    dead.word = word
    _forget(dead, table)
    assert table == {word: newer}
    # the entry still holds the dead reference
    table = {word: dead}
    _forget(dead, table)
    assert table == {}


def footprint() -> dict:
    """Table entries and traced bytes of decoding 40 synthetic programs,
    and the entries left once the programs are dropped."""
    programs = synthetic_programs(40)
    for program in programs:
        program.words
    gc.collect()
    tracemalloc.start()
    held = [program.decoded for program in programs]
    traced, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    live = len(_LIVE)
    distinct = len({w for program in programs for w in program.words})
    del program, programs, held
    gc.collect()
    return {"traced": traced, "live": live, "distinct": distinct,
            "after_drop": len(_LIVE)}


@pytest.fixture(scope="module")
def fresh_footprint():
    # a fresh interpreter: no other test's program holds a word, and the
    # table's own growth is counted from empty
    return fresh_json("tests.isa.test_shared_decode")


def test_table_holds_exactly_the_live_words(fresh_footprint):
    assert fresh_footprint["live"] == fresh_footprint["distinct"] == 883


def test_table_is_empty_once_the_last_program_is_dropped(fresh_footprint):
    assert fresh_footprint["after_drop"] == 0


def test_decoding_stays_within_its_memory_budget(fresh_footprint):
    assert fresh_footprint["traced"] <= FOOTPRINT_BUDGET, fresh_footprint


if __name__ == "__main__":
    print(json.dumps(footprint()))
