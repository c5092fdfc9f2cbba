"""Tests for the per-cycle event recorder and the fabric timeline."""

import pytest

from repro.core.params import ProcessorParams
from repro.core.policies import NoSteering, PaperSteering
from repro.core.processor import Processor
from repro.core.tracing import (
    CycleEvents,
    EventRecorder,
    render_fabric_timeline,
    slot_glyphs,
)
from repro.fabric.fabric import Fabric
from repro.isa.assembler import assemble
from repro.isa.futypes import FUType
from repro.workloads.kernels import checksum

_PARAMS = ProcessorParams(reconfig_latency=4)


class TestSlotGlyphs:
    def test_empty_fabric(self):
        assert slot_glyphs(Fabric()) == "." * 8

    def test_reconfiguring_slot(self):
        f = Fabric(reconfig_latency=10)
        f.rfus.begin_reconfigure(0, FUType.INT_ALU)
        assert slot_glyphs(f)[0] == "*"

    def test_loaded_and_busy_units(self):
        f = Fabric(reconfig_latency=1)
        f.rfus.begin_reconfigure(0, FUType.FP_ALU)
        while not f.rfus.bus_free:
            f.tick()
        assert slot_glyphs(f)[:3] == "FFF"  # idle: uppercase, spans shown
        f.issue(FUType.FP_ALU)  # the fixed FP ALU
        assert not f.issue(FUType.FP_ALU).fixed  # then the loaded one
        assert slot_glyphs(f)[:3] == "fff"


class TestEventRecording:
    @staticmethod
    def _record(program, **kwargs):
        recorder = EventRecorder()
        proc = Processor(program, params=_PARAMS, observer=recorder, **kwargs)
        return proc.run(), recorder.events

    def test_history_recorded_when_enabled(self):
        result, events = self._record(checksum(iterations=10).program)
        assert len(events) == result.cycles
        assert events[0].cycle == 0
        # something was fetched in cycle 0 and something retired eventually
        assert events[0].fetched
        assert any(e.retired for e in events)

    def test_retired_seqs_cover_all_instructions(self):
        result, events = self._record(checksum(iterations=5).program)
        retired = [s for e in events for s in e.retired]
        assert len(retired) == result.retired
        assert retired == sorted(retired)  # in-order retirement visible

    def test_flush_events_visible(self):
        # alternating branch: guaranteed mispredicts
        program = assemble(
            "li x1, 16\nloop: andi x2, x1, 1\nbeq x2, x0, skip\n"
            "addi x3, x3, 1\nskip: addi x1, x1, -1\nbne x1, x0, loop\nhalt\n"
        )
        _, events = self._record(program)
        assert any(e.flushed for e in events)

    def test_selection_recorded_with_traced_manager(self):
        program = checksum(iterations=20).program
        _, events = self._record(program, policy=PaperSteering())
        assert all(e.selection is not None for e in events)
        _, events = self._record(program, policy=NoSteering())
        assert all(e.selection is None for e in events)


class TestTimelineRendering:
    def test_renders_rows(self):
        events = [
            CycleEvents(cycle=i, slots="A" * 8, issued=(i,), selection=0)
            for i in range(10)
        ]
        text = render_fabric_timeline(events)
        assert text.count("\n") == 11  # header + rule + 10 rows

    def test_stride_and_cap(self):
        events = [CycleEvents(cycle=i, slots="." * 8) for i in range(100)]
        text = render_fabric_timeline(events, stride=10)
        assert len(text.splitlines()) == 12
        capped = render_fabric_timeline(events, stride=1, max_rows=5)
        # 5 rows shown, so exactly 95 cycles (= rows at stride 1) remain
        assert "(95 more cycles)" in capped

    def test_truncation_counts_rows_not_events_with_stride(self):
        events = [CycleEvents(cycle=i, slots="." * 8) for i in range(100)]
        capped = render_fabric_timeline(events, stride=3, max_rows=10)
        # rows are cycles 0,3,...,27; truncation happens at i=30 with 70
        # events left, which is ceil(70/3) = 24 suppressed rows.
        assert "(24 more rows, 70 more cycles)" in capped
        assert len(capped.splitlines()) == 2 + 10 + 1  # header+rule+rows+note

    def test_flush_marker(self):
        text = render_fabric_timeline([CycleEvents(cycle=0, slots=".", flushed=2)])
        assert "FLUSH" in text
