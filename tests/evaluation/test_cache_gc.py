"""Tests for result-cache GC (LRU prune) and atomic blob writes."""

import os
import time

import pytest

import repro.evaluation.batch as batch
from repro.core.params import ProcessorParams
from repro.evaluation.batch import (
    ResultCache,
    SimJob,
    _atomic_write_bytes,
    code_digest,
    run_many,
)
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX


def _age(directory, key, when):
    """Set a blob's mtime, its LRU clock, to ``when``."""
    os.utime(directory / f"{key}.pkl", (when, when))


def _fill(cache, n, size=100, t0=1000.0):
    """Seed ``n`` blobs with strictly increasing mtimes."""
    for i in range(n):
        cache.put(f"{i:064x}", b"x" * size)
        _age(cache.directory, f"{i:064x}", t0 + i)


# ------------------------------------------------------------------ pruning
def test_prune_respects_max_bytes_evicting_lru_first(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 5)
    blob = os.path.getsize(cache.directory / ("0" * 63 + "0.pkl"))
    stats = cache.prune(max_bytes=2 * blob, now=2000.0)
    assert stats["removed"] == 3
    assert stats["kept"] == 2
    assert stats["bytes_kept"] <= 2 * blob
    # the two most recently touched keys survive
    assert cache.has(f"{3:064x}")
    assert cache.has(f"{4:064x}")
    assert not cache.has(f"{0:064x}")


def test_prune_respects_max_age(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 4, t0=1000.0)  # touches 1000..1003
    stats = cache.prune(max_age=50.0, now=1052.0)
    assert stats["removed"] == 2  # 1000 and 1001 are > 50s old
    assert cache.has(f"{2:064x}") and cache.has(f"{3:064x}")


def test_prune_survives_restart_through_blob_mtimes(tmp_path):
    first = ResultCache(tmp_path)
    _fill(first, 3)
    # a new cache object reads the LRU order off the blobs' mtimes
    second = ResultCache(tmp_path)
    stats = second.prune(max_age=1.5, now=1002.0)
    assert stats["removed"] == 1  # only the oldest touch (1000.0) is too old
    assert not second.has(f"{0:064x}")


def test_get_refreshes_lru_position(tmp_path):
    cache = ResultCache(tmp_path)
    _fill(cache, 3)
    assert cache.get(f"{0:064x}") is not None  # key 0 was just read
    blob = os.path.getsize(cache.directory / ("0" * 63 + "0.pkl"))
    cache.prune(max_bytes=blob)
    assert cache.has(f"{0:064x}")
    assert not cache.has(f"{1:064x}")


@pytest.mark.parametrize("reader_wrote", [True, False], ids=["memory", "disk"])
def test_get_by_one_object_survives_prune_by_another(tmp_path, reader_wrote):
    # an API worker only reads and the supervisor prunes: the recency of
    # the reads must reach the directory, whether the reader answered
    # from its memory or loaded the blob
    writer = ResultCache(tmp_path)
    _fill(writer, 2)  # key 0 older than key 1
    reader = writer if reader_wrote else ResultCache(tmp_path)
    assert reader.get(f"{0:064x}") == b"x" * 100
    blob = os.path.getsize(writer.directory / ("0" * 63 + "0.pkl"))
    stats = ResultCache(tmp_path).prune(max_bytes=blob)
    assert stats["removed"] == 1
    assert (writer.directory / f"{0:064x}.pkl").exists()
    assert not (writer.directory / f"{1:064x}.pkl").exists()


def test_prune_removes_stale_tmp_files(tmp_path):
    cache = ResultCache(tmp_path)
    stale = cache.directory / "dead.pkl.123.456.tmp"
    stale.write_bytes(b"partial")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    fresh = cache.directory / "live.pkl.789.012.tmp"
    fresh.write_bytes(b"in flight")
    cache.prune()
    assert not stale.exists()
    assert fresh.exists()  # a concurrent writer's file is left alone


def test_prune_memory_only_cache_is_noop():
    cache = ResultCache()
    cache.put("a" * 64, {"x": 1})
    stats = cache.prune(max_bytes=0)
    assert stats == {"removed": 0, "kept": 1, "bytes_freed": 0, "bytes_kept": 0}
    assert cache.get("a" * 64) == {"x": 1}


def test_stats_counters(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("b" * 64, b"payload")
    cache.get("b" * 64)
    cache.get("c" * 64)
    stats = cache.stats()
    assert stats["memory_entries"] == 1
    assert stats["disk_blobs"] == 1
    assert stats["disk_bytes"] > 0
    assert stats["hits"] == 1 and stats["misses"] == 1


# ------------------------------------------------------- code namespaces
def _phase_run(directory):
    """A small traced steering run (E-PH's job shape) through a disk
    cache: its result and selection runs, and the cache."""
    cache = ResultCache(directory)
    job = SimJob(
        "steering-traced",
        phased_program([(INT_MIX, 20), (FP_MIX, 20)], seed=3),
        ProcessorParams(reconfig_latency=4),
    )
    (traced,) = run_many([job], cache=cache)
    return (traced["result"].to_dict(), traced["selection_runs"]), cache


def test_code_digest_namespaces_the_disk_cache(tmp_path, monkeypatch):
    """A result answers only for the code that computed it: the same
    digest answers from disk with no simulation, another digest
    re-simulates, and pruning under it drops the old namespace once it
    has been idle for an hour."""
    first, cache = _phase_run(tmp_path)
    assert cache.directory == tmp_path / code_digest()
    again, cache = _phase_run(tmp_path)
    assert (cache.hits, cache.misses) == (1, 0)  # 0 simulations
    assert again == first

    monkeypatch.setattr(batch, "code_digest", lambda: "e" * 64)
    changed, cache = _phase_run(tmp_path)
    assert (cache.hits, cache.misses) == (0, 1)  # simulated again
    assert changed == first
    assert cache.prune()["removed"] == 0  # the old code may still serve
    assert cache.prune(now=time.time() + batch.IDLE_S + 1)["removed"] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["e" * 64]


def test_put_survives_a_prune_by_other_code(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    monkeypatch.setattr(batch, "code_digest", lambda: "e" * 64)
    ResultCache(tmp_path).prune(now=time.time() + batch.IDLE_S + 1)
    assert not cache.directory.exists()
    cache.put("a" * 64, b"x")
    assert (cache.directory / f"{'a' * 64}.pkl").exists()


def _foreign_namespace(root, idle_s):
    """Another code digest's namespace holding one blob, untouched (the
    directory and the blob) for ``idle_s`` seconds."""
    other = root / ("f" * 64)
    other.mkdir()
    blob = other / f"{'a' * 64}.pkl"
    blob.write_bytes(b"another code's result")
    when = time.time() - idle_s
    for path in (blob, other):
        os.utime(path, (when, when))
    return other


def test_prune_keeps_a_foreign_namespace_in_use(tmp_path):
    # two servers of different code share one cache root: neither start-up
    # prune may wipe the other's results
    other = _foreign_namespace(tmp_path, idle_s=batch.IDLE_S - 60)
    stats = ResultCache(tmp_path).prune()
    assert stats["removed"] == 0
    assert (other / f"{'a' * 64}.pkl").exists()


def test_prune_keeps_a_foreign_namespace_read_lately(tmp_path):
    # an old directory whose blob a get refreshed is in use
    other = _foreign_namespace(tmp_path, idle_s=2 * batch.IDLE_S)
    os.utime(other / f"{'a' * 64}.pkl")
    assert ResultCache(tmp_path).prune()["removed"] == 0
    assert other.exists()


def test_prune_removes_an_idle_foreign_namespace(tmp_path):
    other = _foreign_namespace(tmp_path, idle_s=batch.IDLE_S + 60)
    stats = ResultCache(tmp_path).prune()
    assert stats["removed"] == 1
    assert not other.exists()


def test_prune_drops_blobs_kept_before_namespacing(tmp_path):
    legacy = tmp_path / f"{0:064x}.pkl"
    legacy.write_bytes(b"old layout")
    cache = ResultCache(tmp_path)
    cache.put("a" * 64, b"x")
    stats = cache.prune()
    assert stats["removed"] == 1 and stats["kept"] == 1
    assert not legacy.exists()


# ------------------------------------------------------------ memory bound
def test_memory_keeps_the_most_recently_used_entries(tmp_path):
    cache = ResultCache(tmp_path)
    keys = [f"{i:064x}" for i in range(batch.MEMORY_ENTRIES + 10)]
    cache.put(keys[0], 0)
    for i, key in enumerate(keys[1:], start=1):
        cache.put(key, i)
        assert cache.get(keys[0]) == 0  # a hit keeps key 0 young
    assert cache.stats()["memory_entries"] == batch.MEMORY_ENTRIES
    assert keys[0] in cache._memory
    assert keys[1] not in cache._memory  # the oldest put went first
    # the disk still answers an evicted key, and it comes back into memory
    assert cache.get(keys[1]) == 1
    assert keys[1] in cache._memory
    assert cache.stats()["memory_entries"] == batch.MEMORY_ENTRIES


def test_memory_only_cache_forgets_past_the_bound():
    cache = ResultCache()
    for i in range(batch.MEMORY_ENTRIES + 10):
        cache.put(f"{i:064x}", i)
    assert cache.stats()["memory_entries"] == batch.MEMORY_ENTRIES
    assert cache.get(f"{0:064x}") is None  # re-simulated by run_many
    assert cache.get(f"{batch.MEMORY_ENTRIES + 9:064x}") == batch.MEMORY_ENTRIES + 9


# ------------------------------------------------------------- atomic writes
def test_atomic_write_leaves_no_tmp_on_success(tmp_path):
    target = tmp_path / "blob.pkl"
    _atomic_write_bytes(target, b"hello")
    assert target.read_bytes() == b"hello"
    assert list(tmp_path.glob("*.tmp")) == []


def test_atomic_write_cleans_up_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "blob.pkl"
    target.write_bytes(b"original")

    def failing_replace(src, dst):
        raise OSError("disk detached")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        _atomic_write_bytes(target, b"new payload")
    # the original is untouched and no tmp litter remains
    assert target.read_bytes() == b"original"
    assert list(tmp_path.glob("*.tmp")) == []


def test_put_is_atomic_on_disk(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("d" * 64, {"ipc": 1.0})
    # only the blob exists — no tmp files and no index
    names = sorted(p.name for p in cache.directory.iterdir())
    assert names == ["d" * 64 + ".pkl"]
