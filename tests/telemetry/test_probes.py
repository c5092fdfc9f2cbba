"""Processor telemetry probes: the disabled contract, sampling, spans.

The load-bearing guarantee tested here: telemetry that is *disabled*
(or absent) leaves the simulation bit-identical to the unobserved run,
and telemetry that is *enabled* observes without perturbing results
(every observer x kernel is pinned in
``tests/core/test_fastpath_equivalence.py``).
"""

import json

import pytest

from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.core.processor import Processor
from repro.isa.futypes import FU_TYPES
from repro.telemetry import STAGES, ProcessorTelemetry, SpanTracer

_PARAMS = ProcessorParams(reconfig_latency=8)


def _program():
    from repro.workloads.kernels import checksum

    return checksum(iterations=30).program


class TestDisabledContract:
    def test_disabled_is_inactive(self):
        assert ProcessorTelemetry.disabled().active is False
        assert ProcessorTelemetry().active is True
        assert ProcessorTelemetry(tracer=SpanTracer()).active is True

    def test_disabled_normalises_to_none(self):
        proc = steering_processor(
            _program(), _PARAMS, observer=ProcessorTelemetry.disabled()
        )
        assert proc.observer is None
        proc.observer = ProcessorTelemetry.disabled()
        assert proc.observer is None
        tel = ProcessorTelemetry()
        proc.observer = tel
        assert proc.observer is tel

    def test_disabled_result_bit_identical_to_no_telemetry(self):
        plain = steering_processor(_program(), _PARAMS).run()
        disabled = steering_processor(
            _program(), _PARAMS, observer=ProcessorTelemetry.disabled()
        ).run()
        assert disabled.to_dict() == plain.to_dict()
        assert disabled.final_registers == plain.final_registers


class TestEnabledObservation:
    def test_enabled_does_not_change_the_simulation(self):
        plain = steering_processor(_program(), _PARAMS).run()
        tel = ProcessorTelemetry(tracer=SpanTracer())
        observed = steering_processor(
            _program(), _PARAMS, observer=tel
        ).run()
        assert observed.to_dict() == plain.to_dict()

    def test_counters_match_the_result(self):
        tel = ProcessorTelemetry()
        result = steering_processor(_program(), _PARAMS, observer=tel).run()
        r = tel.registry
        assert r.get("repro_sim_cycles_total").value == result.cycles
        assert r.get("repro_sim_retired_total").value == result.retired
        assert (
            r.get("repro_sim_reconfigurations_total").value
            == result.reconfigurations
        )

    def test_series_catalogue(self):
        tel = ProcessorTelemetry(sample_interval=16)
        steering_processor(_program(), _PARAMS, observer=tel).run()
        names = set(tel.series.names())
        expected = {
            "windowed_ipc", "slot_occupancy", "reconfiguring_slots",
            "ruu_depth", "ready_depth", "availability_bits", "cem_error",
        }
        for t in FU_TYPES:
            expected.add(f"demand_{t.short_name}")
            expected.add(f"avail_{t.short_name}")
        assert names == expected

    def test_sample_x_axis_follows_interval(self):
        tel = ProcessorTelemetry(sample_interval=16)
        steering_processor(_program(), _PARAMS, observer=tel).run()
        xs = [x for x, _ in tel.series.series("windowed_ipc").samples()]
        assert xs == sorted(xs)
        # first sample lands on the 16th cycle (cycle index 15)
        assert xs[0] == 15
        assert all((b - a) == 16 for a, b in zip(xs, xs[1:]))

    def test_tracer_records_steering_activity(self):
        tracer = SpanTracer()
        tel = ProcessorTelemetry(tracer=tracer)
        result = steering_processor(_program(), _PARAMS, observer=tel).run()
        doc = tracer.to_chrome_trace()
        reconfigs = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("reconfig ")
        ]
        assert len(reconfigs) == result.reconfigurations
        assert any(
            e["name"] == "steer" for e in doc["traceEvents"] if e["ph"] == "i"
        )

    def test_snapshot_is_json_serialisable(self):
        tel = ProcessorTelemetry(tracer=SpanTracer())
        steering_processor(_program(), _PARAMS, observer=tel).run()
        doc = json.loads(json.dumps(tel.snapshot()))
        assert doc["version"] == 1
        assert doc["sample_interval"] == 32
        assert doc["series"]["windowed_ipc"]["x"]
        assert doc["span_events"] == len(tel.tracer)

    def test_summary_lines(self):
        tel = ProcessorTelemetry(tracer=SpanTracer())
        steering_processor(_program(), _PARAMS, observer=tel).run()
        text = "\n".join(tel.summary_lines())
        assert "cycles=" in text and "series:" in text and "trace:" in text


class TestStageProfiling:
    def test_stage_wall_clock_accumulates(self):
        tel = ProcessorTelemetry(profile_stages=True, tracer=SpanTracer())
        steering_processor(_program(), _PARAMS, observer=tel).run()
        snap = tel.snapshot()
        wall = snap["stage_wall_seconds"]
        assert set(wall) == set(STAGES)
        assert sum(wall.values()) > 0.0
        stage_counter = tel.registry.get("repro_sim_stage_seconds_total")
        lines: list[str] = []
        stage_counter.render_into(lines)
        assert len(lines) == len(STAGES)
        # profile counter track sampled into the trace
        assert any(
            e["ph"] == "C" and e["name"] == "stage_us"
            for e in tel.tracer.to_chrome_trace()["traceEvents"]
        )

    def test_constructor_attachment_equivalent_to_attach(self):
        """``observer=`` at construction and assigning ``proc.observer``
        before the run observe the same thing."""
        built = ProcessorTelemetry()
        Processor(_program(), params=_PARAMS, observer=built).run()
        assigned = ProcessorTelemetry()
        proc = Processor(_program(), params=_PARAMS)
        proc.observer = assigned
        proc.run()
        assert assigned.snapshot() == built.snapshot()
        assert assigned.summary_lines() == built.summary_lines()
