"""Tests for the fetch unit."""

import pytest

from repro.frontend.branch import BTB, BranchPredictor
from repro.frontend.fetch import FetchUnit
from repro.frontend.memory import InstructionMemory
from repro.frontend.trace_cache import TraceCache
from repro.isa.assembler import assemble


def _unit(src, **kwargs):
    return FetchUnit(InstructionMemory(assemble(src)), **kwargs)


class TestSequentialFetch:
    def test_fetches_up_to_width(self):
        u = _unit("add x1, x2, x3\n" * 6, width=4)
        packet = u.fetch_packet()
        assert [f.pc for f in packet] == [0, 1, 2, 3]
        assert u.fetch_packet()[0].pc == 4

    def test_predicted_next_sequential(self):
        u = _unit("add x1, x2, x3\nadd x1, x2, x3\n")
        packet = u.fetch_packet()
        assert packet[0].predicted_next == 1
        assert not packet[0].predicted_taken

    def test_stalls_at_end_of_memory(self):
        u = _unit("add x1, x2, x3\n", width=4)
        assert len(u.fetch_packet()) == 1
        assert u.fetch_packet() == []

    def test_counters(self):
        u = _unit("add x1, x2, x3\n" * 5, width=4)
        u.fetch_packet()
        assert (u.packets, u.fetched) == (1, 4)


class TestControlFlow:
    def test_halt_ends_packet_and_stalls(self):
        u = _unit("add x1, x2, x3\nhalt\nadd x4, x5, x6\n", width=4)
        packet = u.fetch_packet()
        assert len(packet) == 2
        assert packet[-1].instruction.is_halt
        assert u.fetch_packet() == []

    def test_jal_followed_within_prediction(self):
        u = _unit("j target\nadd x1, x2, x3\ntarget: halt\n", width=4)
        packet = u.fetch_packet()
        assert len(packet) == 1  # taken jump ends the packet (no trace cache)
        assert packet[0].predicted_taken
        assert packet[0].predicted_next == 2
        assert u.fetch_packet()[0].pc == 2

    def test_branch_predicted_not_taken_initially(self):
        u = _unit("beq x0, x0, 3\nadd x1, x2, x3\nhalt\n", width=4)
        packet = u.fetch_packet()
        # falls through past the branch
        assert [f.pc for f in packet] == [0, 1, 2]
        assert not packet[0].predicted_taken

    def test_branch_predicted_taken_after_training(self):
        u = _unit("loop: addi x1, x1, 1\nbne x1, x0, loop\nhalt\n", width=4)
        u.predictor.update(1, taken=True)
        u.predictor.update(1, taken=True)
        packet = u.fetch_packet()
        assert packet[-1].pc == 1
        assert packet[-1].predicted_taken
        assert packet[-1].predicted_next == 0

    def test_jalr_uses_btb(self):
        btb = BTB()
        u = _unit("jalr x0, x1, 0\nadd x1, x2, x3\nhalt\n", btb=btb, width=2)
        packet = u.fetch_packet()
        assert packet[0].predicted_next == 1  # BTB miss: fall-through
        u.redirect(0)
        btb.update(0, 2)
        packet = u.fetch_packet()
        assert packet[0].predicted_next == 2
        assert packet[0].predicted_taken

    def test_redirect(self):
        u = _unit("add x1, x2, x3\n" * 4 + "halt\n")
        u.fetch_packet()
        u.redirect(1)
        assert u.fetch_packet()[0].pc == 1


class TestTraceCacheIntegration:
    _LOOP = "loop: addi x1, x1, 1\nbne x1, x0, loop\nhalt\n"

    def test_first_taken_branch_ends_packet_and_seeds_cache(self):
        tc = TraceCache()
        u = _unit(self._LOOP, trace_cache=tc, width=4)
        u.predictor.update(1, taken=True)
        u.predictor.update(1, taken=True)
        packet = u.fetch_packet()
        assert len(packet) == 2  # addi + bne, ends at the taken branch
        assert tc.misses == 1

    def test_hot_path_fetches_across_taken_branch(self):
        tc = TraceCache()
        u = _unit(self._LOOP, trace_cache=tc, width=4)
        u.predictor.update(1, taken=True)
        u.predictor.update(1, taken=True)
        u.fetch_packet()  # seeds the trace cache
        packet = u.fetch_packet()
        # now the packet wraps around the loop: addi, bne, addi, bne
        assert [f.pc for f in packet] == [0, 1, 0, 1]

    def test_without_trace_cache_packets_stay_short(self):
        u = _unit(self._LOOP, width=4)
        u.predictor.update(1, taken=True)
        u.predictor.update(1, taken=True)
        u.fetch_packet()
        assert len(u.fetch_packet()) == 2
