"""Tests for the trace cache."""

import pytest

from repro.errors import SimulationError
from repro.frontend.trace_cache import TraceCache


class TestTraceCache:
    def test_miss_then_hit(self):
        tc = TraceCache()
        assert tc.lookup(5) is None
        tc.insert(5, (5, 6, 7))
        assert tc.lookup(5) == (5, 6, 7)
        assert (tc.hits, tc.misses) == (1, 1)

    def test_truncated_to_max_trace(self):
        tc = TraceCache(max_trace=2)
        tc.insert(0, tuple(range(10)))
        assert tc.lookup(0) == (0, 1)

    def test_empty_trace_ignored(self):
        tc = TraceCache()
        tc.insert(0, ())
        assert len(tc) == 0

    def test_fifo_eviction(self):
        tc = TraceCache(capacity=2)
        tc.insert(1, (1,))
        tc.insert(2, (2,))
        tc.insert(3, (3,))
        assert tc.lookup(1) is None
        assert tc.lookup(3) == (3,)

    def test_reinsert_does_not_evict(self):
        tc = TraceCache(capacity=2)
        tc.insert(1, (1,))
        tc.insert(2, (2,))
        tc.insert(1, (1, 9))
        assert tc.lookup(2) == (2,)
        assert tc.lookup(1) == (1, 9)

    def test_hit_rate(self):
        tc = TraceCache()
        assert (tc.hits, tc.misses) == (0, 0)
        tc.insert(1, (1,))
        tc.lookup(1)
        tc.lookup(2)
        assert (tc.hits, tc.misses) == (1, 1)

    def test_validation(self):
        with pytest.raises(SimulationError):
            TraceCache(capacity=0)
        with pytest.raises(SimulationError):
            TraceCache(max_trace=0)
