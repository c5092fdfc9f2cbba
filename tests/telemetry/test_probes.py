"""Processor telemetry probes: sampling, spans, stage profiling.

The load-bearing guarantee: telemetry observes without perturbing
results (every observer x kernel is pinned in
``tests/core/test_fastpath_equivalence.py``).
"""

import json

from repro.core.baselines import demand_processor, steering_processor
from repro.core.params import ProcessorParams
from repro.core.processor import Processor
from repro.isa.futypes import FU_TYPES
from repro.telemetry import STAGES, ProcessorTelemetry
from repro.telemetry.probes import SAMPLE_INTERVAL
from repro.workloads import resolve_program

_PARAMS = ProcessorParams(reconfig_latency=8)


def _program():
    from repro.workloads.kernels import checksum

    return checksum(iterations=30).program


class TestEnabledObservation:
    def test_enabled_does_not_change_the_simulation(self):
        plain = steering_processor(_program(), _PARAMS).run()
        tel = ProcessorTelemetry()
        observed = steering_processor(
            _program(), _PARAMS, observer=tel
        ).run()
        assert observed.to_dict() == plain.to_dict()

    def test_counters_match_the_result(self):
        """The CLI's counter line copies the result and the ledger."""
        tel = ProcessorTelemetry()
        result = steering_processor(_program(), _PARAMS, observer=tel).run()
        assert tel.summary_lines(result)[0] == (
            f"cycles={result.cycles} retired={result.retired} "
            f"flushes={result.flushes} "
            f"reconfigs={result.reconfigurations} "
            f"steer_decisions={tel.ledger.opened}"
        )

    def test_series_catalogue(self):
        tel = ProcessorTelemetry()
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
        tel = ProcessorTelemetry()
        steering_processor(_program(), _PARAMS, observer=tel).run()
        xs = [x for x, _ in tel.series.series("windowed_ipc").samples()]
        assert xs == sorted(xs)
        # first sample lands on the 32nd cycle (cycle index 31)
        assert xs[0] == SAMPLE_INTERVAL - 1
        assert all((b - a) == SAMPLE_INTERVAL for a, b in zip(xs, xs[1:]))

    def test_tracer_records_steering_activity(self):
        tel = ProcessorTelemetry()
        result = steering_processor(_program(), _PARAMS, observer=tel).run()
        doc = tel.tracer.to_chrome_trace()
        reconfigs = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("reconfig ")
        ]
        assert len(reconfigs) == result.reconfigurations
        assert any(
            e["name"] == "steer" for e in doc["traceEvents"] if e["ph"] == "i"
        )

    def test_every_load_is_a_span_without_the_paper_unit(self):
        """A policy with no selection unit (no ``last_result``) still gets
        one ``reconfig`` span per load its loader starts."""
        tel = ProcessorTelemetry()
        proc = demand_processor(resolve_program("phased:1"))
        proc.observer = tel
        proc.run()
        spans = [
            e for e in tel.tracer.to_chrome_trace()["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("reconfig ")
        ]
        loads = proc.policy.loader.history
        assert len(loads) == 7
        assert [e["name"] for e in spans] == [
            f"reconfig {plan.fu_type.short_name}@{plan.head}" for plan in loads
        ]

    def test_snapshot_is_json_serialisable(self):
        tel = ProcessorTelemetry()
        steering_processor(_program(), _PARAMS, observer=tel).run()
        doc = json.loads(json.dumps(tel.snapshot()))
        assert doc["version"] == 1
        assert doc["sample_interval"] == 32
        assert doc["series"]["windowed_ipc"]["x"]
        assert doc["span_events"] == len(tel.tracer)

    def test_summary_lines(self):
        tel = ProcessorTelemetry()
        result = steering_processor(_program(), _PARAMS, observer=tel).run()
        text = "\n".join(tel.summary_lines(result))
        assert "cycles=" in text and "series:" in text and "trace:" in text


class TestStageProfiling:
    def test_stage_wall_clock_accumulates(self):
        tel = ProcessorTelemetry(profile_stages=True)
        steering_processor(_program(), _PARAMS, observer=tel).run()
        snap = tel.snapshot()
        wall = snap["stage_wall_seconds"]
        assert set(wall) == set(STAGES)
        assert sum(wall.values()) > 0.0
        # profile counter track sampled into the trace
        assert any(
            e["ph"] == "C" and e["name"] == "stage_us"
            for e in tel.tracer.to_chrome_trace()["traceEvents"]
        )

    def test_constructor_attachment_equivalent_to_attach(self):
        """``observer=`` at construction and assigning ``proc.observer``
        before the run observe the same thing."""
        built = ProcessorTelemetry()
        built_result = Processor(_program(), params=_PARAMS, observer=built).run()
        assigned = ProcessorTelemetry()
        proc = Processor(_program(), params=_PARAMS)
        proc.observer = assigned
        assigned_result = proc.run()
        assert assigned.snapshot() == built.snapshot()
        assert assigned.summary_lines(assigned_result) == built.summary_lines(
            built_result
        )
