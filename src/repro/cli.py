"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``kernels``
    List every kernel name ``run`` and served jobs accept.
``run <kernel-or-file.s> [--policy P] [--reconfig-latency N] ...``
    Simulate a kernel (by name) or an assembly file and print the result
    summary; with ``--compare`` runs every policy and prints an IPC table.
``disasm <file.s>``
    Assemble a file and print the binary encoding next to the disassembly.
``artifacts [name ...]``
    Regenerate paper artifacts (tables/figures); default: all of them.
``trace <kernel-or-file.s> [--cycles N]``
    Run with event recording and print the fabric-occupancy timeline.
``trace <run-id> [--store runs.sqlite] [-o trace.json]``
    Assemble the merged end-to-end Perfetto trace of a served run:
    queue-wait + claim/execute spans, the cycle-domain simulation
    trace, and matching event-log records, all under one trace id.
``explain <run-id> [--store runs.sqlite] [--json]``
    Print the run's steering decision ledger: the demand/availability
    inputs, candidate errors, chosen configuration and predicted vs.
    realized IPC of every recorded steering decision.
``serve [--port N] [--store runs.sqlite] [--workers N] [--sim-pool M]``
    Serve the run store + dashboard over HTTP: a supervisor forks N API
    workers accepting on one listening socket and M simulation workers
    that run the submitted jobs (see docs/serving.md).
``lint [paths ...] [--format json] [--rules IDS]``
    Static analysis of the simulator's performance/determinism/
    concurrency/layering invariants in one uncached pass; exit 1 on any
    finding not suppressed inline (see docs/static-analysis.md).
``goldens check|diff|update [--root tests/goldens]``
    Golden-trace corpus: replay every (policy x workload) cell and
    compare against the committed canonical records; ``update``
    requires an explicit ``--spec-version`` bump (docs/verification.md).
``fuzz [--seed S] [--iterations N] [--time-budget T] [--out DIR]``
    Differential policy fuzzing: generated programs through every
    catalogue policy, cross-checked against the functional reference;
    failures are minimized and written as ready-to-run reproducers.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

from repro.core.baselines import policy_catalogue, steering_processor
from repro.core.params import ProcessorParams
from repro.core.tracing import EventRecorder, render_fabric_timeline
from repro.errors import ReproError
from repro.evaluation import artifacts as artifacts_mod
from repro.evaluation.report import render_table
from repro.isa.assembler import assemble
from repro.isa.disassembler import format_instruction
from repro.isa.program import Program
from repro.workloads import kernel_factories, resolve_program

__all__ = ["main"]

_ARTIFACTS = {
    "table1": lambda: artifacts_mod.table1(),
    "table2": lambda: artifacts_mod.table2(),
    "fig1": lambda: artifacts_mod.figure1_inventory(),
    "fig2": lambda: artifacts_mod.figure2_selection_demo(),
    "fig3": lambda: artifacts_mod.figure3_cem_study().table,
    "fig456": lambda: artifacts_mod.figure456_wakeup_example(),
    "fig7": lambda: artifacts_mod.figure7_availability_check(),
}


def _load_program(target: str) -> Program:
    """An assembly file, or a target of :func:`repro.workloads.resolve_program`.

    A target that names no program exits 2 with a one-line message.
    """
    path = pathlib.Path(target)
    try:
        if path.suffix == ".s" or path.is_file():
            return assemble(path.read_text())
        return resolve_program(target)
    except (OSError, ReproError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _params_from_args(args: argparse.Namespace) -> ProcessorParams:
    return ProcessorParams(
        window_size=args.window,
        fetch_width=args.width,
        retire_width=args.width,
        reconfig_latency=args.reconfig_latency,
    )


def _cmd_kernels(_args: argparse.Namespace) -> int:
    rows = [
        (name, factory().description)
        for name, factory in kernel_factories().items()
    ]
    print(render_table(["kernel", "description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.target)
    params = _params_from_args(args)
    catalogue = policy_catalogue()
    if args.compare:
        rows = []
        for name, factory in catalogue.items():
            result = factory(program, params).run(max_cycles=args.max_cycles)
            rows.append((name, result.ipc, result.cycles, result.reconfigurations))
        rows.sort(key=lambda r: -r[1])
        print(render_table(["policy", "IPC", "cycles", "reconfigs"], rows))
        return 0
    if args.policy not in catalogue:
        print(f"unknown policy {args.policy!r}; choose from "
              f"{', '.join(sorted(catalogue))}", file=sys.stderr)
        return 2
    telemetry = None
    if args.telemetry or args.telemetry_out or args.profile_stages:
        from repro.telemetry import ProcessorTelemetry

        telemetry = ProcessorTelemetry(profile_stages=args.profile_stages)
    proc = catalogue[args.policy](program, params)
    proc.observer = telemetry
    result = proc.run(max_cycles=args.max_cycles)
    if args.json:
        from repro.utils.canonical import canonical_dumps

        record = result.to_dict()
        if telemetry is not None:
            record["telemetry"] = telemetry.snapshot()
        print(canonical_dumps(record, pretty=True))
    else:
        print(result.summary())
        if telemetry is not None:
            for line in telemetry.summary_lines(result):
                print(f"  {line}")
    if args.telemetry_out:
        from repro.utils.canonical import canonical_dumps

        prefix = pathlib.Path(args.telemetry_out)
        trace_path = prefix.with_name(prefix.name + ".trace.json")
        series_path = prefix.with_name(prefix.name + ".series.json")
        telemetry.tracer.write(str(trace_path))
        series_path.write_text(canonical_dumps(telemetry.snapshot(), pretty=True))
        print(
            f"telemetry written to {trace_path} (load in ui.perfetto.dev) "
            f"and {series_path}",
            file=sys.stderr,
        )
    return 0 if result.halted else 1


def _cmd_disasm(args: argparse.Namespace) -> int:
    program = _load_program(args.target)
    # each word beside what it decodes to, as the processor fetches it
    for pc, (word, instr) in enumerate(zip(program.words, program.decoded)):
        print(f"{pc:5d}: {word:#010x}  {format_instruction(instr)}")
    return 0


def _cmd_artifacts(args: argparse.Namespace) -> int:
    names = args.names or list(_ARTIFACTS)
    for name in names:
        if name not in _ARTIFACTS:
            print(f"unknown artifact {name!r}; choose from "
                  f"{', '.join(_ARTIFACTS)}", file=sys.stderr)
            return 2
        print(f"==== {name} ====")
        print(_ARTIFACTS[name]())
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.evaluation.harness import generate_report

    store = None
    if args.store:
        from repro.serving.store import RunStore

        store = RunStore(args.store)
    try:
        report = generate_report(
            fast=not args.full,
            progress=lambda msg: print(f"[report] {msg}", file=sys.stderr),
            workers=args.workers,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            store=store,
            cache_max_bytes=args.cache_max_bytes,
            telemetry=args.telemetry,
        )
    finally:
        if store is not None:
            store.close()
    if args.output:
        pathlib.Path(args.output).write_text(report.text)
        print(f"report written to {args.output}")
    else:
        print(report.text)
    for r in report.failed:
        print(
            f"claim failed: {r.claim.id}: measured {r.value}, "
            f"band {r.claim.band}",
            file=sys.stderr,
        )
    return 1 if report.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.supervisor import Supervisor

    try:
        sup = Supervisor(
            args.store,
            cache_dir=args.cache_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            sim_pool=args.sim_pool,
            queue_capacity=args.queue_capacity,
            cache_max_bytes=args.cache_max_bytes,
            cache_max_age=args.cache_max_age_days * 86400
            if args.cache_max_age_days is not None
            else None,
            retention_max_runs=args.retention_max_runs,
            retention_max_age_days=args.retention_max_age_days,
            verbose=args.verbose,
            log=lambda msg: print(f"[serve] {msg}", file=sys.stderr),
        )
    # --workers / --sim-pool below 1, or a --store the worker processes
    # cannot share (":memory:"): a usage error, exit 2
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return sup.run()


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_goldens(args: argparse.Namespace) -> int:
    from repro.verify.goldens import check_corpus, read_spec, update_corpus

    progress = (
        (lambda msg: print(f"[goldens] {msg}", file=sys.stderr))
        if args.verbose
        else None
    )
    if args.action == "update":
        if args.spec_version is None:
            print("goldens update requires --spec-version N (strictly above "
                  "the committed version) — see docs/verification.md",
                  file=sys.stderr)
            return 2
        from repro.errors import ConfigurationError

        try:
            written = update_corpus(
                args.root, args.spec_version, workers=args.workers,
                progress=progress,
            )
        except ConfigurationError as exc:
            print(f"goldens update refused: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {written} golden cells at spec_version "
              f"{args.spec_version} under {args.root}")
        return 0
    diffs = check_corpus(args.root, workers=args.workers, progress=progress)
    if not diffs:
        spec = read_spec(args.root)
        print(f"golden corpus clean (spec_version {spec['spec_version']}, "
              f"{len(spec['cells'])} cells)")
        return 0
    for diff in diffs:
        print(diff)
    if args.action == "check":
        print(f"\n{len(diffs)} golden difference(s). A drifting cell is a "
              "bug in the change that drifted it; if the change is intended, "
              "run 'repro goldens update --spec-version N+1' and justify the "
              "bump in the commit.", file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import run_fuzz

    report = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        max_cycles=args.max_cycles,
        workers=args.workers,
        out_dir=args.out,
        shrink=not args.no_shrink,
        keep_going=args.keep_going,
        progress=lambda msg: print(f"[fuzz] {msg}", file=sys.stderr),
    )
    print(
        f"fuzz seed={report.seed}: {report.iterations_run}/"
        f"{report.iterations_requested} iterations, {report.simulations} "
        f"simulations, {len(report.failures)} failure(s) "
        f"(stopped: {report.stopped})"
    )
    for failure in report.failures:
        print(f"\niteration {failure.iteration} "
              f"(program seed {failure.program_seed}):")
        for violation in failure.violations:
            print(f"  {violation}")
        if failure.minimized is not None:
            print(f"  minimized to {failure.minimized.instructions} "
                  f"instructions ({failure.minimized.attempts} shrink "
                  f"attempts)")
        for path in failure.artifacts:
            print(f"  wrote {path}")
    return 0 if report.ok else 1


#: a trace target of >=12 lowercase hex chars is a run id, not a kernel.
_RUN_ID_RE = re.compile(r"[0-9a-f]{12,64}")


def _cmd_trace(args: argparse.Namespace) -> int:
    if _RUN_ID_RE.fullmatch(args.target):
        return _trace_run(args)
    program = _load_program(args.target)
    recorder = EventRecorder()
    proc = steering_processor(program, _params_from_args(args), observer=recorder)
    proc.run(max_cycles=args.max_cycles)
    print(render_fabric_timeline(recorder.events, stride=args.stride))
    return 0


def _trace_run(args: argparse.Namespace) -> int:
    """``repro trace <run-id>``: the merged end-to-end Perfetto file."""
    from repro.evaluation.batch import ResultCache
    from repro.serving.store import RunStore
    from repro.telemetry import events_path_for, merge_job_trace, read_events
    from repro.utils.canonical import canonical_dumps

    run_id = args.target
    store = RunStore(args.store)
    try:
        run = store.get_run(run_id)
        if run is None:
            print(f"no such run in {args.store}: {run_id}", file=sys.stderr)
            return 2
        job = store.job_for_run(run_id)
    finally:
        store.close()

    # the trace id lives on the job row; direct (non-served) runs fall
    # back to the run id so the merge is still self-consistent
    trace_id = (job or {}).get("trace_id") or run_id[:16]
    cache = ResultCache(args.cache_dir)
    payload = cache.get(run["config_hash"])
    sim_trace = payload.get("trace") if isinstance(payload, dict) else None
    events = []
    events_path = events_path_for(args.store)
    if events_path is not None:
        events = read_events(events_path, trace=trace_id, limit=1000)
    merged = merge_job_trace(
        trace_id, job=job, sim_trace=sim_trace, events=events, run_id=run_id
    )
    out = args.output or f"trace-{run_id[:12]}.json"
    pathlib.Path(out).write_text(canonical_dumps(merged, pretty=True) + "\n")
    print(
        f"merged trace: {len(merged['traceEvents'])} events under trace id "
        f"{trace_id} -> {out} (load in ui.perfetto.dev)"
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.evaluation.batch import ResultCache
    from repro.serving.store import RunStore

    store = RunStore(args.store)
    try:
        run = store.get_run(args.run_id)
    finally:
        store.close()
    if run is None:
        print(f"no such run in {args.store}: {args.run_id}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    payload = cache.get(run["config_hash"])
    ledger = payload.get("decisions") if isinstance(payload, dict) else None
    if ledger is None:
        print(
            f"run {args.run_id} has no decision ledger (only "
            "steering-telemetry runs carry one)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        from repro.utils.canonical import canonical_dumps

        print(canonical_dumps(ledger, pretty=True))
        return 0
    decisions = ledger.get("decisions", [])
    if args.limit is not None:
        decisions = decisions[-args.limit:]

    def fmt(value, spec):
        return "" if value is None else format(value, spec)

    rows = [
        (
            d.get("cycle"),
            d.get("selection"),
            d.get("config") or "?",
            d.get("error"),
            fmt(d.get("predicted_ipc"), ".2f"),
            fmt(d.get("realized_ipc"), ".2f"),
            fmt(d.get("prediction_error"), "+.2f"),
        )
        for d in decisions
    ]
    print(render_table(
        ["cycle", "sel", "config", "err", "pred IPC", "real IPC", "delta"],
        rows,
    ))
    print(
        f"{ledger.get('seen', len(decisions))} decisions seen, "
        f"{ledger.get('dropped', 0)} thinned "
        f"(capacity {ledger.get('capacity')}, window {ledger.get('window')})"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reconfigurable superscalar processor with configuration steering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list built-in kernels").set_defaults(
        func=_cmd_kernels
    )

    def add_sim_args(p):
        p.add_argument("target", help="kernel name or .s assembly file")
        p.add_argument("--reconfig-latency", type=int, default=16)
        p.add_argument("--window", type=int, default=7)
        p.add_argument("--width", type=int, default=4)
        p.add_argument("--max-cycles", type=int, default=1_000_000)

    run = sub.add_parser("run", help="simulate a program")
    add_sim_args(run)
    run.add_argument("--policy", default="steering")
    run.add_argument("--json", action="store_true",
                     help="emit the result record as JSON")
    run.add_argument("--compare", action="store_true",
                     help="run every policy and print an IPC table")
    run.add_argument("--telemetry", action="store_true",
                     help="collect time-series, trace spans and steering "
                          "decisions during the run and print a telemetry "
                          "summary")
    run.add_argument("--telemetry-out", default=None, metavar="PREFIX",
                     help="write PREFIX.trace.json (Chrome/Perfetto trace) "
                          "and PREFIX.series.json (implies --telemetry)")
    run.add_argument("--profile-stages", action="store_true",
                     help="wall-clock each pipeline stage (implies "
                          "--telemetry)")
    run.set_defaults(func=_cmd_run)

    disasm = sub.add_parser("disasm", help="print binary + disassembly")
    disasm.add_argument("target")
    disasm.set_defaults(func=_cmd_disasm)

    art = sub.add_parser("artifacts", help="regenerate paper artifacts")
    art.add_argument("names", nargs="*")
    art.set_defaults(func=_cmd_artifacts)

    report = sub.add_parser("report", help="regenerate the full reproduction report")
    report.add_argument("--full", action="store_true", help="full-scale experiments")
    report.add_argument("--output", "-o", help="write to a file instead of stdout")
    report.add_argument("--workers", type=int, default=0,
                        help="simulation worker processes (0 = sequential)")
    report.add_argument("--no-cache", action="store_true",
                        help="disable the content-keyed simulation result cache")
    report.add_argument("--cache-dir", default=None,
                        help="persist the result cache to this directory "
                             "(shared across report runs; CI keys it on the "
                             "source tree)")
    report.add_argument("--store", default=None,
                        help="register every experiment + simulation as a run "
                             "in this SQLite run store (see 'repro serve')")
    report.add_argument("--cache-max-bytes", type=int, default=None,
                        help="LRU-prune the on-disk result cache to this many "
                             "bytes after the report")
    report.add_argument("--telemetry", action="store_true",
                        help="add an E-TEL section: one instrumented steering "
                             "run whose time-series persist into the cache/"
                             "store (powers the dashboard telemetry panel)")
    report.set_defaults(func=_cmd_report)

    srv = sub.add_parser(
        "serve",
        help="serve the run store + dashboard over HTTP",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8734)
    srv.add_argument("--store", default="runs.sqlite",
                     help="SQLite run index (created if missing)")
    srv.add_argument("--cache-dir", default=".report-cache",
                     help="content-addressed result blob directory")
    srv.add_argument("--workers", type=int, default=1,
                     help="API worker processes (N >= 1), forked by a "
                          "supervisor; all accept on one listening socket")
    srv.add_argument("--sim-pool", type=int, default=1,
                     help="simulation worker processes (M >= 1); they run "
                          "every submitted job from the durable queue")
    srv.add_argument("--retention-max-runs", type=int, default=None,
                     help="on startup, keep only the newest N runs in the "
                          "store")
    srv.add_argument("--retention-max-age-days", type=float, default=None,
                     help="on startup, drop runs (and settled jobs) older "
                          "than this many days")
    srv.add_argument("--queue-capacity", type=int, default=8,
                     help="max queued-but-not-started submitted jobs "
                          "(further submissions get HTTP 503)")
    srv.add_argument("--cache-max-bytes", type=int, default=None,
                     help="LRU-prune the result cache to this many bytes on "
                          "startup")
    srv.add_argument("--cache-max-age-days", type=float, default=None,
                     help="drop cache blobs untouched for this many days on "
                          "startup")
    srv.add_argument("--verbose", action="store_true",
                     help="log one structured line per HTTP request "
                          "(method, path, status, latency)")
    srv.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="check the tree against the performance/determinism/"
             "concurrency/layering invariants",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    goldens = sub.add_parser(
        "goldens",
        help="check/diff/update the golden-trace corpus",
    )
    goldens.add_argument("action", choices=("check", "diff", "update"))
    goldens.add_argument("--root", default="tests/goldens",
                         help="corpus directory (default: tests/goldens)")
    goldens.add_argument("--spec-version", type=int, default=None,
                         help="new corpus version for 'update'; must be "
                              "strictly greater than the committed one")
    goldens.add_argument("--workers", type=int, default=0,
                         help="simulation worker processes (0 = run the "
                              "jobs in order in this process)")
    goldens.add_argument("--verbose", action="store_true",
                         help="print per-cell progress to stderr")
    goldens.set_defaults(func=_cmd_goldens)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential policy fuzzing against the reference interpreter",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed for the fuzzing schedule")
    fuzz.add_argument("--iterations", type=int, default=100,
                      help="generated programs to try")
    fuzz.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                      help="stop early after this much wall-clock time")
    fuzz.add_argument("--max-cycles", type=int, default=200_000,
                      help="cycle budget per simulation")
    fuzz.add_argument("--workers", type=int, default=0,
                      help="simulation worker processes (0 = run the "
                           "jobs in order in this process)")
    fuzz.add_argument("--out", default=None, metavar="DIR",
                      help="write failure artifacts (source, minimized "
                           "source, violations, repro script) to this "
                           "directory")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip minimizing failing programs")
    fuzz.add_argument("--keep-going", action="store_true",
                      help="continue fuzzing after the first failing "
                           "iteration")
    fuzz.set_defaults(func=_cmd_fuzz)

    trace = sub.add_parser(
        "trace",
        help="print the fabric timeline of a kernel, or assemble the "
             "merged Perfetto trace of a served run id",
    )
    add_sim_args(trace)
    trace.add_argument("--stride", type=int, default=2)
    trace.add_argument("--store", default="runs.sqlite",
                       help="run store to resolve a run-id target against")
    trace.add_argument("--cache-dir", default=".report-cache",
                       help="result blob directory holding the run's "
                            "cycle-domain trace")
    trace.add_argument("--output", "-o", default=None,
                       help="merged trace output file "
                            "(default: trace-<run-id>.json)")
    trace.set_defaults(func=_cmd_trace)

    explain = sub.add_parser(
        "explain",
        help="print a served run's steering decision ledger",
    )
    explain.add_argument("run_id", help="run id from the store/dashboard")
    explain.add_argument("--store", default="runs.sqlite")
    explain.add_argument("--cache-dir", default=".report-cache")
    explain.add_argument("--json", action="store_true",
                         help="emit the raw ledger payload as JSON")
    explain.add_argument("--limit", type=int, default=None,
                         help="show only the newest N decisions")
    explain.set_defaults(func=_cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
