"""Differential fuzzer: clean sweeps, seeded-bug detection, artifacts.

``test_seeded_steering_bug_caught_and_shrunk`` is the subsystem's
self-test (mutation test): a deliberately broken steering build — every
second mispredict repair resumes one instruction past the true target —
must be caught by the invariants within the first few iterations and
minimized to a dozen instructions or fewer.
"""

import ast
import json
import pathlib

from repro.core import baselines
from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.isa.futypes import FUType
from repro.isa.program import Program
from repro.verify import fuzz as fuzz_module
from repro.verify.fuzz import FuzzFailure, run_fuzz
from repro.verify.generator import GeneratorConfig
from repro.verify.invariants import Violation

#: cycle budget ample for generated programs but quick to exhaust when
#: the seeded bug spins the pipeline forever.
FAST_CYCLES = 20_000


def _buggy_steering(program, params):
    """Steering build with an off-by-one in mispredict recovery."""
    proc = steering_processor(program, params)
    bound = len(program.instructions)
    state = {"repairs": 0}
    true_redirect = proc.fetch.redirect

    def skewed_redirect(pc):
        state["repairs"] += 1
        if state["repairs"] % 2 == 0 and pc + 1 < bound:
            pc += 1
        true_redirect(pc)

    proc.fetch.redirect = skewed_redirect
    return proc


def test_clean_sweep_over_catalogue():
    report = run_fuzz(seed=0, iterations=5, max_cycles=FAST_CYCLES)
    assert report.ok
    assert report.iterations_run == 5
    # every catalogue policy ran on every program
    assert report.simulations == 5 * 8
    assert report.stopped == "iterations"


def _counted_fuzz(monkeypatch, seed, iterations):
    """``run_fuzz``'s report and its reference runs, fuzzer and oracle."""
    runs = []

    def counting(real):
        def run_reference(program, **kwargs):
            runs.append(kwargs.get("max_instructions"))
            return real(program, **kwargs)

        return run_reference

    for module in (fuzz_module, baselines):
        monkeypatch.setattr(module, "run_reference", counting(module.run_reference))
    report = run_fuzz(seed=seed, iterations=iterations, max_cycles=FAST_CYCLES)
    return report, runs


def test_one_reference_run_per_iteration(monkeypatch):
    """The oracle steers by the trace of the fuzzer's own reference run."""
    report, runs = _counted_fuzz(monkeypatch, seed=5, iterations=4)
    assert report.ok and report.iterations_run == 4
    assert runs == [fuzz_module.REFERENCE_BUDGET] * 4
    # the same report as with no trace remembered between the two runs
    monkeypatch.setattr(
        Program, "reference_trace", property(lambda self: None, lambda self, v: None)
    )
    unmemoised, runs = _counted_fuzz(monkeypatch, seed=5, iterations=4)
    assert len(runs) == 8
    assert unmemoised == report


def test_schedule_is_seed_deterministic():
    a = run_fuzz(seed=3, iterations=3, max_cycles=FAST_CYCLES)
    b = run_fuzz(seed=3, iterations=3, max_cycles=FAST_CYCLES)
    assert a.ok and b.ok
    assert a.simulations == b.simulations


def test_seeded_steering_bug_caught_and_shrunk(tmp_path):
    report = run_fuzz(
        seed=0,
        iterations=20,
        max_cycles=FAST_CYCLES,
        base_config=GeneratorConfig(flush_density=0.4),
        extra_policies={"steering-mutant": _buggy_steering},
        out_dir=tmp_path,
    )
    assert not report.ok
    failure = report.failures[0]
    assert any(v.policy == "steering-mutant" for v in failure.violations)
    # the acceptance bar: minimized reproducer at or under 12 instructions
    assert failure.minimized is not None
    assert failure.minimized.instructions <= 12

    # artifacts: source, minimized source, violation record, repro script
    names = {p.rsplit("/", 1)[-1].split(".", 1)[1] for p in failure.artifacts}
    assert names == {"s", "min.s", "json", "repro.py"}
    record_path = [p for p in failure.artifacts if p.endswith(".json")][0]
    record = json.loads(open(record_path).read())
    assert record["implicated_policies"] == ["steering-mutant"]
    assert record["minimized_instructions"] == failure.minimized.instructions


def test_keep_going_collects_multiple_failures():
    report = run_fuzz(
        seed=0,
        iterations=4,
        max_cycles=FAST_CYCLES,
        base_config=GeneratorConfig(flush_density=0.4),
        extra_policies={"steering-mutant": _buggy_steering},
        shrink=False,
        keep_going=True,
    )
    assert len(report.failures) >= 2
    assert report.iterations_run == 4


def test_time_budget_stops_early():
    report = run_fuzz(seed=0, iterations=10_000, time_budget=2.0,
                      max_cycles=FAST_CYCLES)
    assert report.stopped == "time-budget"
    assert report.iterations_run < 10_000


def test_telemetry_counters_populated():
    """The report carries the fuzz counts: programs run, simulations and
    failures."""
    report = run_fuzz(seed=1, iterations=3, max_cycles=FAST_CYCLES)
    assert report.ok
    assert report.iterations_run == 3
    assert report.simulations == 24
    assert report.failures == []


def test_steering_probes_rotate_through_every_observer(monkeypatch):
    """Successive steering probes each attach the next observer arm."""
    seen = []

    def recording(invariant, make):
        def factory():
            seen.append(invariant)
            return make()

        return factory

    monkeypatch.setattr(
        fuzz_module,
        "_OBSERVER_ARMS",
        tuple(
            (inv, what, recording(inv, make))
            for inv, what, make in fuzz_module._OBSERVER_ARMS
        ),
    )
    n_arms = len(fuzz_module._OBSERVER_ARMS)
    report = run_fuzz(
        seed=0,
        iterations=8 * n_arms,
        max_cycles=FAST_CYCLES,
        base_config=GeneratorConfig(blocks=2, body_len=6, max_iterations=2),
    )
    assert report.ok
    assert seen == [inv for inv, _, _ in fuzz_module._OBSERVER_ARMS]
    assert seen == [
        "metamorphic-telemetry", "metamorphic-events",
        "metamorphic-steering-trace", "metamorphic-profile",
    ]


def test_perturbing_observer_is_caught(monkeypatch):
    class Perturbing:
        def on_stage(self, proc, stage):
            if stage == "tick":
                proc._flushes += 1

        def on_cycle(self, proc, *facts):
            pass

    monkeypatch.setattr(
        fuzz_module,
        "_OBSERVER_ARMS",
        (("metamorphic-events", "attaching an event recorder", Perturbing),),
    )
    # the catalogue has 8 policies; iteration 7 probes steering
    report = run_fuzz(
        seed=0, iterations=8, max_cycles=FAST_CYCLES, shrink=False
    )
    invariants = {v.invariant for f in report.failures for v in f.violations}
    assert invariants == {"metamorphic-events"}


def test_one_run_many_call_per_iteration(monkeypatch):
    """Each iteration runs the whole catalogue through one ``run_many``
    call; the metamorphic checks re-run only observed steering probes."""
    calls = []
    real_run_many = fuzz_module.run_many

    def counting(jobs, *args, **kwargs):
        calls.append(len(jobs))
        return real_run_many(jobs, *args, **kwargs)

    monkeypatch.setattr(fuzz_module, "run_many", counting)
    report = run_fuzz(seed=2, iterations=3, max_cycles=FAST_CYCLES)
    assert report.ok
    assert calls == [8, 8, 8]


def test_repro_script_carries_the_whole_parameter_point(tmp_path):
    """The reproducer's ``PARAMS`` equals the run's parameters at every
    field that differs from its default, the fixed bank included."""
    params = ProcessorParams(
        window_size=11,
        fetch_width=2,
        reconfig_latency=8,
        use_exact_metric=True,
        pipelined_scheduling=True,
        reconfig_mode="difference",
        ffu_counts={FUType.INT_ALU: 2, FUType.FP_MDU: 0},
    )
    failure = FuzzFailure(
        iteration=3,
        program_seed=7,
        config=GeneratorConfig(),
        violations=(Violation("halts", "steering", "did not halt"),),
        source="addi x1, x0, 1\nhalt",
        minimized=None,
    )
    paths = fuzz_module._write_artifacts(tmp_path, failure, params, 1234)
    script = [p for p in paths if p.endswith(".repro.py")][0]
    tree = ast.parse(pathlib.Path(script).read_text())
    # the imports and the PARAMS assignment, without running the replay
    kept = [
        node for node in tree.body
        if isinstance(node, ast.ImportFrom)
        or (isinstance(node, ast.Assign) and node.targets[0].id == "PARAMS")
    ]
    namespace = {}
    exec(compile(ast.Module(kept, []), script, "exec"), namespace)
    assert namespace["PARAMS"] == params
    assert namespace["PARAMS"].fingerprint == params.fingerprint
