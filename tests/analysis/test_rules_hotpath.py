"""HOT rule family: allocations and telemetry discipline in hot zones."""

import textwrap

from tests.analysis.conftest import rule_ids


def src(body: str) -> str:
    return textwrap.dedent(body)


class TestHotAllocations:
    def test_comprehension_in_hot_function_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    return [x * 2 for x in self.window]
        """))
        assert rule_ids(findings) == ["HOT001"]
        assert "ListComp" in findings[0].message

    def test_generator_and_container_call_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    counts = dict(self.live_counts())
                    return sum(x for x in counts)
        """))
        assert sorted(rule_ids(findings)) == ["HOT001", "HOT002"]

    def test_fstring_and_lambda_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def tick(self):
                    label = f"cycle {self.cycle}"
                    key = lambda e: e.seq
                    return label, key
        """))
        assert sorted(rule_ids(findings)) == ["HOT003", "HOT004"]

    def test_cold_function_in_same_file_not_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def snapshot(self):
                    return [x * 2 for x in self.window]

                def report(self):
                    return f"retired {dict(self.counts)}"
        """))
        assert findings == []

    def test_raise_paths_are_exempt(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    if self.full:
                        raise RuntimeError(f"window full: {list(self.rows)}")
                    return self.grant()
        """))
        assert findings == []

    def test_wildcard_hotzone_covers_every_function(self, lint_source):
        findings = lint_source(
            src("""
                def anything():
                    return {k: v for k, v in pairs}
            """),
            path="repro/sched/allhot.py",
        )
        assert rule_ids(findings) == ["HOT001"]

    def test_non_hotzone_file_not_flagged(self, lint_source):
        findings = lint_source(
            src("""
                class Kernel:
                    def step(self):
                        return [x for x in self.window]
            """),
            path="repro/sched/cold.py",
        )
        assert findings == []


class TestHotDataclassSlots:
    def test_dataclass_without_slots_in_hotzone_file_flagged(self, lint_source):
        findings = lint_source(src("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Record:
                seq: int
        """))
        assert rule_ids(findings) == ["HOT005"]
        assert "Record" in findings[0].message

    def test_bare_dataclass_decorator_flagged(self, lint_source):
        findings = lint_source(src("""
            from dataclasses import dataclass

            @dataclass
            class Record:
                seq: int
        """))
        assert rule_ids(findings) == ["HOT005"]

    def test_slotted_dataclass_ok(self, lint_source):
        findings = lint_source(src("""
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Record:
                seq: int
        """))
        assert findings == []

    def test_plain_class_ok(self, lint_source):
        findings = lint_source(src("""
            class Record:
                pass
        """))
        assert findings == []


class TestHotTelemetryGuard:
    def test_unguarded_telemetry_call_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    tel = self._telemetry
                    tel.on_cycle(self, 1)
        """))
        assert rule_ids(findings) == ["HOT006"]

    def test_attribute_receiver_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def tick(self):
                    self._telemetry.on_cycle(self, 1)
        """))
        assert rule_ids(findings) == ["HOT006"]

    def test_one_truthiness_check_pattern_ok(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    tel = self._telemetry
                    if tel is not None:
                        tel.on_cycle(self, 1)
        """))
        assert findings == []

    def test_guard_on_self_attribute_ok(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def tick(self):
                    if self._telemetry:
                        self._telemetry.on_cycle(self, 1)
        """))
        assert findings == []

    def test_unguarded_observer_hook_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    obs = self.observer
                    obs.on_stage(self, "retire")
        """))
        assert rule_ids(findings) == ["HOT006"]

    def test_unguarded_observer_attribute_flagged(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    self._observer.on_cycle(self, 1)
        """))
        assert rule_ids(findings) == ["HOT006"]

    def test_observer_none_check_pattern_ok(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    obs = self._observer
                    if obs is not None:
                        obs.on_stage(self, "retire")
        """))
        assert findings == []
