"""Which functions of ``src/repro`` no product path reaches.

Drives the product paths under ``sys.setprofile`` and records every
function they call:

* the CLI commands ``kernels``, ``disasm``, ``run`` under each catalogue
  policy (and ``--compare``, ``--json``, ``--telemetry
  --profile-stages --telemetry-out``), ``trace <kernel>``, a cold and a warm ``report
  --workers 0 --telemetry --cache-dir D --store S``, ``fuzz --seed 0
  --iterations 32 --workers 0``, ``goldens check``/``update``/``diff``
  on a copy of the corpus, ``lint`` (human and ``--format json``) and
  ``artifacts``;
* the served stack: a ``Supervisor(workers=1, sim_pool=1, port=0)`` on
  that store and cache (with run retention, and a namespace of other
  code in the cache root), whose forked API and sim workers record in
  their own processes and hand what they reached back through a file
  when their main returns.  Every API route is hit, ETag revalidation
  and a ``HEAD`` included, and submitted jobs run, fail and answer from
  the cache; then ``trace <run-id>`` and ``explain <run-id>`` read a
  served run;
* the six ``examples/`` scripts;
* the ``perfbench`` ``Sweep``, ``Sim`` and ``Fuzz`` workloads (set-up,
  measurement and check, at one second's size).

It then lists each function defined in every package of ``src/repro``
and in ``cli.py`` that nothing reached and that :data:`KEEP` does not
name, with its line count, and exits 1 if it lists any.  A function
nested in an unreached function is not listed apart.  A :data:`KEEP`
entry that names no function, or a function that was reached, is listed
too: the keep list is exactly what stays unreached on purpose.  It also
exits 1 if a child process it started is still running at the end.

Stdlib only; takes about 35 s on a 2-vCPU container.  Usage, from the
repository root:

    PYTHONPATH=src python benchmarks/product_paths.py
"""

from __future__ import annotations

import ast
import contextlib
import http.client
import io
import json
import multiprocessing
import os
import pathlib
import runpy
import shutil
import sys
import tempfile
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
sys.path.insert(0, str(REPO_ROOT / "src"))

#: the packages (every one of ``src/repro``) and the module whose
#: unreached functions are listed.
PACKAGES = tuple(
    sorted(p.name for p in PACKAGE_ROOT.iterdir() if (p / "__init__.py").is_file())
) + ("cli.py",)

_DUNDER = "a dunder: Python calls it for debugging output or a protocol"

#: ``module path::qualified name`` -> why the function stays although no
#: product path reaches it.  An entry must name an unreached function.
KEEP = {
    # reference models: the plain statement of what a fast path computes
    "sched/select.py::select_grants":
        "reference model: oldest-first arbitration, inlined by the issue stage",
    "sched/wakeup.py::WakeupArray.requests_reference":
        "reference model: the per-row request loop the packed kernel replaces",
    "sched/wakeup.py::WakeupArray.insert":
        "reference model: the row write dispatch inlines; tests build arrays with it",
    "fabric/fabric.py::Fabric._crosscheck":
        "reference model: the rescan REPRO_AVAILABILITY_CROSSCHECK=1 arms",
    "fabric/availability.py::availability_report":
        "reference model: Eq. 1 through the Fig. 7 circuit, for the fabric's bus",
    "circuits/selection_netlist.py::build_selection_core":
        "reference model: the stage 3-4 netlist the selection tables are cut from",
    "isa/futypes.py::unpack_counts":
        "reference model: the tests read packed demands back with it",
    "utils/bitops.py::bits": "reference model: the reference decoder reads fields with it",
    "utils/bitops.py::to_signed":
        "reference model: the semantics tests state expected results with it",
    "utils/bitops.py::to_unsigned":
        "reference model: the semantics tests state expected results with it",
    # valid input no product path happens to give
    "isa/registers.py::parse_register":
        "the assembler's reader of register spellings outside its table (F1, f02)",
    "isa/assembler.py::_arity_error":
        "the assembler's error for a wrong operand count; no product input has one",
    "isa/semantics.py::_divu":
        "the divu handler: in the ISA, but no kernel or generated program divides unsigned",
    "isa/semantics.py::_remu":
        "the remu handler: in the ISA, but no kernel or generated program uses it",
    "isa/semantics.py::_fcvtws":
        "the fcvt.w.s handler: in the ISA, but no kernel or generated program converts to integer",
    "frontend/branch.py::BTB.predict":
        "fetch's target guess for jalr; no kernel or generated program jumps through a register",
    "frontend/branch.py::BTB.update":
        "trains the jalr target guess; no kernel or generated program jumps through a register",
    # descriptions, documentation and pickling
    "isa/reference.py::isa_reference":
        "docs/isa.md embeds its output; tests/isa/test_reference_docs.py checks it",
    "isa/reference.py::format_reference":
        "docs/isa.md embeds its output; tests/isa/test_reference_docs.py checks it",
    "isa/instruction.py::Instruction.mnemonic":
        "read by RuuEntry.__repr__ and by the ALU's error for an unhandled opcode",
    "core/policies.py::SteeringPolicy.describe":
        "the Fig. 1 inventory's text for a policy without its own description",
    "core/policies.py::DemandSteering.describe":
        "the Fig. 1 inventory's text for the demand policy; no product path prints it",
    "core/params.py::ProcessorParams.__getstate__":
        "pickles parameters for a pool worker; the paths here run in this process",
    "isa/program.py::Program.__getstate__":
        "pickles a program for a pool worker; the paths here run in this process",
    "isa/instruction.py::Instruction.__str__": _DUNDER,
    "isa/program.py::Program.__getitem__": _DUNDER,
    "frontend/decode.py::DecodeStage.__len__": _DUNDER,
    "frontend/memory.py::InstructionMemory.__len__": _DUNDER,
    "sched/entry.py::RuuEntry.__repr__": _DUNDER,
    "sched/wakeup.py::WakeupArray.__len__": _DUNDER,
    "fabric/allocation.py::AllocationVector.__len__": _DUNDER,
    "fabric/allocation.py::AllocationVector.__getitem__": _DUNDER,
    "fabric/units.py::FunctionalUnit.__repr__": _DUNDER,
    # the infrastructure
    "analysis/config.py::_parse_minimal_toml":
        "reads analysis/layers.toml on Python 3.10, which has no tomllib",
    "analysis/rules/__init__.py::Rule.check":
        "the base rule's abstract check; every registered rule overrides it",
    "analysis/findings.py::Finding.sort_key":
        "lint orders findings with it; the tree has none to order",
    "analysis/findings.py::Finding.to_dict":
        "lint's JSON record of a finding; the tree has none to report",
    "verify/goldens.py::GoldenDiff.__str__":
        "goldens check prints a drifted cell with it; the corpus is clean",
    "verify/invariants.py::Violation.__str__":
        "fuzz prints a violation with it; the drive's fuzz round finds none",
    "verify/fuzz.py::_run_one":
        "fuzz failure path: attributes a crash inside a batch to its policy",
    "verify/fuzz.py::_still_fails_predicate":
        "fuzz failure path: the shrinker's predicate for a failing program",
    "verify/fuzz.py::_write_artifacts":
        "fuzz failure path: writes a failure's reproducer files",
    "verify/shrink.py::shrink_source":
        "fuzz failure path: minimises a failing program",
    "verify/shrink.py::_normalise": "fuzz failure path: the shrinker's source reader",
    "verify/shrink.py::_deletable_indices":
        "fuzz failure path: the shrinker's candidate lines",
    "verify/shrink.py::_try_assemble":
        "fuzz failure path: the shrinker's candidate assembler",
    "serving/supervisor.py::Supervisor.run":
        "repro serve's respawn loop runs until a signal; the drive starts and "
        "stops the same supervisor with start() and stop()",
    "cli.py::_cmd_serve":
        "repro serve blocks until a signal; the drive builds the same Supervisor",
    "serving/store.py::RunStore.__enter__":
        "benchmarks/record_throughput.py and bench_serving_load.py open a store "
        "in a with-block",
    "serving/store.py::RunStore.__exit__":
        "benchmarks/record_throughput.py and bench_serving_load.py open a store "
        "in a with-block",
    "evaluation/batch.py::run_vector_batch":
        "perfbench/tracing.py wraps it by name (evaluation.vector.run_vector_batch)",
}


def _functions(path: pathlib.Path):
    """``(qualname, first line, last line, nested)`` of every function
    defined in ``path``; the first line is the code object's
    ``co_firstlineno`` (the first decorator's line)."""
    tree = ast.parse(path.read_text(), str(path))
    out = []

    def visit(node, prefix: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                out.append((name, first, child.end_lineno, in_function))
                visit(child, name + ".<locals>.", True)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", in_function)
            else:
                visit(child, prefix, in_function)

    visit(tree, "", False)
    return out


@contextlib.contextmanager
def _profiled(seen: set):
    """Record the code object of every Python call, on every thread."""

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def _quiet(fn, *args) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        fn(*args)


def _cli(*argv: str) -> None:
    from repro.cli import main

    try:
        _quiet(main, list(argv))
    except SystemExit:
        pass


def _example(path: pathlib.Path) -> None:
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        _quiet(runpy.run_path, str(path), None, "__main__")
    finally:
        sys.argv = argv


def _perfbench(workdir: pathlib.Path) -> None:
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for name in ("sweep", "sim", "fuzz"):
        workload = workloads.WORKLOADS[name](0, 1, workdir)
        try:
            workload.setup()
            workload.check(workload.measure())
        finally:
            workload.close()


@contextlib.contextmanager
def _reporting_workers(seen: set, workdir: pathlib.Path):
    """Make each forked worker main hand back the code it reached.

    A forked child keeps this process's profile function but records
    into its own copy of ``seen``; the wrapped main writes what it
    reached to ``workdir`` when it returns, and :func:`_collect` reads
    it back.
    """
    from repro.serving import supervisor

    originals = {
        name: getattr(supervisor, name)
        for name in ("_api_worker_main", "_sim_worker_main")
    }

    def reporting(original):
        def main(*args, **kwargs):
            seen.clear()
            try:
                return original(*args, **kwargs)
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
                lines = sorted({f"{c.co_filename}\t{c.co_firstlineno}" for c in seen})
                (workdir / f"reached-{os.getpid()}.txt").write_text(
                    "\n".join(lines)
                )

        return main

    for name, original in originals.items():
        setattr(supervisor, name, reporting(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(supervisor, name, original)


def _collect(workdir: pathlib.Path) -> set:
    """``(real path, first line)`` of what the worker processes reached."""
    out = set()
    for path in workdir.glob("reached-*.txt"):
        for line in path.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            out.add((os.path.realpath(filename), int(first)))
    return out


class _Client:
    """One keep-alive HTTP connection to the served API."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body=None, headers=None):
        self.conn.request(method, path, body=body, headers=headers or {})
        response = self.conn.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), data

    def json(self, method: str, path: str, spec=None, headers=None):
        body = json.dumps(spec).encode() if spec is not None else None
        status, _, data = self.request(method, path, body, headers)
        return status, json.loads(data) if data else None

    def settle(self, spec) -> dict:
        """Submit ``spec`` and poll its job until it settles."""
        _, record = self.json(
            "POST", "/api/jobs", spec, {"X-Repro-Trace-Id": "0123456789abcdef"}
        )
        deadline = time.monotonic() + 120
        while record["state"] not in ("done", "failed"):
            if time.monotonic() > deadline:
                raise TimeoutError(record["job_id"])
            time.sleep(0.05)
            _, record = self.json("GET", f"/api/jobs/{record['job_id']}")
        return record


def _serve(workdir: pathlib.Path, store: str, cache_dir: str) -> str:
    """Hit every API route of a 1 API + 1 sim worker supervisor; returns
    the run id of a served ``steering-telemetry`` job."""
    from repro.serving.supervisor import Supervisor

    # a namespace of other code in the cache root, as an edit leaves one:
    # start-up pruning looks at when it was last used
    (pathlib.Path(cache_dir) / ("0" * 64)).mkdir(exist_ok=True)
    sup = Supervisor(store, cache_dir=cache_dir, port=0, workers=1, sim_pool=1,
                     retention_max_runs=10_000)
    sup.start()
    try:
        client = _Client(sup.port)
        deadline = time.monotonic() + 60
        while True:
            try:
                if client.request("GET", "/api/health")[0] == 200:
                    break
            except OSError:
                client.conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.05)
        spec = {"factory": "steering-telemetry", "target": "checksum",
                "max_cycles": 20_000}
        run_id = client.settle(spec)["run_id"]
        client.json("POST", "/api/jobs", spec)  # answered from the cache
        client.settle({"target": "phased:1", "params": {
            "window_size": 5,
            "ffu_counts": {"INT_ALU": 2, "INT_MDU": 1, "LSU": 1, "FP_ALU": 1,
                           "FP_MDU": 1},
        }})
        client.settle({"factory": "random", "target": "checksum",
                       "kwargs": {"period": 0}})  # fails in the sim worker
        for body in (b"{", b"[]", b'{"target": "no-such-kernel"}'):
            client.request("POST", "/api/jobs", body)
        client.request("POST", "/api/runs", b"")
        runs = client.json("GET", "/api/runs?limit=5&offset=0")[1]["runs"]
        other = runs[-1]["run_id"]
        jobs = client.json("GET", "/api/jobs")[1]["jobs"]
        for path in (
            "/", "/index.html", "/metrics", "/api/health", "/api/experiments",
            "/api/runs?limit=x", f"/api/runs/{run_id}?format=text",
            f"/api/runs/{run_id}/timeseries", f"/api/runs/{run_id}/decisions",
            f"/api/runs/{other}/timeseries", "/api/runs/00000000",
            "/api/runs/00000000/artifact", f"/api/jobs/{jobs[0]['job_id']}",
            "/api/jobs/job-none", "/api/diff?a=", "/api/diff?a=00000000&b=1",
            "/api/logs?limit=x", "/api/logs?trace=0123456789abcdef&limit=5",
            "/api/logs?event=job_done", "/no/such/path",
        ):
            client.request("GET", path)
        for path in (
            f"/api/runs/{run_id}", f"/api/runs/{run_id}/artifact",
            f"/api/diff?a={run_id}&b={other}",
        ):
            _, headers, _ = client.request("GET", path)
            client.request("GET", path, headers={"If-None-Match": headers["ETag"]})
        client.request("HEAD", "/api/health")
        client.conn.close()
    finally:
        sup.stop()
    return run_id


def drive(workdir: pathlib.Path, seen: set) -> None:
    """Run every product path once (output discarded)."""
    from repro.core.baselines import policy_catalogue

    _cli("kernels")
    _cli("disasm", "checksum")
    for policy in policy_catalogue():
        _cli("run", "checksum", "--policy", policy)
        _cli("run", "phased:1", "--policy", policy)
    _cli("run", "checksum", "--compare")
    _cli("run", "checksum", "--json")
    _cli("run", "phased:1", "--telemetry", "--profile-stages",
         "--telemetry-out", str(workdir / "phased"))
    _cli("trace", "checksum")
    store, cache_dir = str(workdir / "runs.sqlite"), str(workdir / "cache")
    for _ in ("cold", "warm"):
        _cli("report", "--workers", "0", "--telemetry", "--cache-dir",
             cache_dir, "--store", store, "-o", str(workdir / "report.md"))
    with _reporting_workers(seen, workdir):
        run_id = _serve(workdir, store, cache_dir)
    _cli("trace", run_id, "--store", store, "--cache-dir", cache_dir,
         "-o", str(workdir / "trace.json"))
    _cli("explain", run_id, "--store", store, "--cache-dir", cache_dir)
    _cli("explain", run_id, "--store", store, "--cache-dir", cache_dir, "--json")
    _cli("fuzz", "--seed", "0", "--iterations", "32", "--workers", "0")
    goldens = workdir / "goldens"
    shutil.copytree(REPO_ROOT / "tests" / "goldens", goldens)
    _cli("goldens", "check", "--root", str(goldens))
    _cli("goldens", "update", "--root", str(goldens), "--spec-version",
         str(json.loads((goldens / "SPEC.json").read_text())["spec_version"] + 1))
    _cli("goldens", "diff", "--root", str(goldens))
    _cli("lint")
    _cli("lint", "--format", "json", "--output", str(workdir / "lint.json"))
    _cli("artifacts")
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        _example(path)
    # last: the fuzz workload rebinds two names of repro.verify.fuzz
    _perfbench(workdir)


def _modules(packages=PACKAGES):
    """Every module file of ``packages`` (a package directory or a module
    file of ``PACKAGE_ROOT``), sorted."""
    for package in packages:
        path = PACKAGE_ROOT / package
        yield from [path] if path.is_file() else sorted(path.rglob("*.py"))


def unreached(reached: set, packages=PACKAGES):
    """``(module path::qualname, lines)`` of every function of ``packages``
    whose ``(real path, first line)`` ``reached`` lacks, outermost
    unreached only."""
    out = []
    for path in _modules(packages):
        real = os.path.realpath(path)
        rel = path.relative_to(PACKAGE_ROOT).as_posix()
        missed_scopes: list[str] = []
        for name, first, last, nested in _functions(path):
            if (real, first) in reached:
                continue
            if nested and any(name.startswith(s + ".") for s in missed_scopes):
                continue
            missed_scopes.append(name)
            out.append((f"{rel}::{name}", last - first + 1))
    return out


def defined(packages=PACKAGES) -> set:
    """``module path::qualname`` of every function of ``packages``."""
    return {
        f"{path.relative_to(PACKAGE_ROOT).as_posix()}::{name}"
        for path in _modules(packages)
        for name, *_ in _functions(path)
    }


def main() -> int:
    os.chdir(REPO_ROOT)
    seen: set = set()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        with _profiled(seen):
            drive(workdir, seen)
        reached = _collect(workdir)
    reached |= {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}
    left = multiprocessing.active_children()
    for child in left:
        print(f"child process {child.name} (pid {child.pid}) left running")
    missed = unreached(reached)
    names = {name for name, _ in missed}
    known = defined()
    listed = [(name, n) for name, n in missed if name not in KEEP]
    stale = [
        (name, "names no function" if name not in known else "was reached")
        for name in sorted(set(KEEP) - names)
    ]
    for name, n in listed:
        print(f"{name}  ({n} lines)")
    for name, why in stale:
        print(f"{name}  (keep entry {why})")
    kept = len(names & set(KEEP))
    print(
        f"{len(listed)} unreached function(s), {sum(n for _, n in listed)} "
        f"lines; {kept} kept unreached on purpose",
        file=sys.stderr,
    )
    return 1 if listed or stale or left else 0


if __name__ == "__main__":
    raise SystemExit(main())
