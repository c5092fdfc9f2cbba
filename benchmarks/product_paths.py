"""Which functions of the simulator no product path reaches.

Drives the product paths in this process under ``sys.setprofile`` and
records every function they call:

* the CLI commands ``kernels``, ``disasm``, ``run`` under each catalogue
  policy (and ``--compare``, ``--json``, ``--telemetry
  --profile-stages``), ``trace``, ``report --no-cache --workers 0
  --telemetry``, ``fuzz --seed 0 --iterations 32 --workers 0``,
  ``goldens check``, ``lint`` and ``artifacts``;
* the six ``examples/`` scripts;
* the ``perfbench`` ``Sweep``, ``Sim`` and ``Fuzz`` workloads (set-up,
  measurement and check, at one second's size).

It then lists each function defined in the simulator proper (``isa``,
``circuits``, ``frontend``, ``sched``, ``fabric``, ``steering``,
``core``), ``utils`` and ``workloads`` that nothing reached and that
:data:`KEEP` does not name, with its line count, and exits 1 if it
lists any.  A function nested in an unreached function is not listed
apart.  A :data:`KEEP` entry that names no function, or a function that
was reached, is listed too: the keep list is exactly what stays
unreached on purpose.

Stdlib only; takes about a minute.  Usage, from the repository root:

    PYTHONPATH=src python benchmarks/product_paths.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
sys.path.insert(0, str(REPO_ROOT / "src"))

#: the packages whose unreached functions are listed.
PACKAGES = (
    "isa", "circuits", "frontend", "sched", "fabric", "steering", "core",
    "utils", "workloads",
)

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
    "fabric/availability.py::AvailabilityCache._crosscheck":
        "reference model: the rescan REPRO_AVAILABILITY_CROSSCHECK=1 arms",
    "fabric/availability.py::availability_report":
        "reference model: Eq. 1 through the Fig. 7 circuit, for the cache's bus",
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


def drive(workdir: pathlib.Path) -> None:
    """Run every product path once (output discarded)."""
    from repro.core.baselines import policy_catalogue

    _cli("kernels")
    _cli("disasm", "checksum")
    for policy in policy_catalogue():
        _cli("run", "checksum", "--policy", policy)
        _cli("run", "phased:1", "--policy", policy)
    _cli("run", "checksum", "--compare")
    _cli("run", "checksum", "--json")
    _cli("run", "phased:1", "--telemetry", "--profile-stages")
    _cli("trace", "checksum")
    _cli("report", "--no-cache", "--workers", "0", "--telemetry",
         "-o", str(workdir / "report.md"))
    _cli("fuzz", "--seed", "0", "--iterations", "32", "--workers", "0")
    _cli("goldens", "check", "--root", str(REPO_ROOT / "tests" / "goldens"))
    _cli("lint")
    _cli("artifacts")
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        _example(path)
    # last: the fuzz workload rebinds two names of repro.verify.fuzz
    _perfbench(workdir)


def unreached(seen: set, packages=PACKAGES):
    """``(module path::qualname, lines)`` of every function of ``packages``
    whose code object ``seen`` lacks, outermost unreached only."""
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}
    out = []
    for package in packages:
        for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
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


def main() -> int:
    os.chdir(REPO_ROOT)
    seen: set = set()
    with tempfile.TemporaryDirectory() as tmp, _profiled(seen):
        drive(pathlib.Path(tmp))
    missed = unreached(seen)
    names = {name for name, _ in missed}
    defined = {
        f"{path.relative_to(PACKAGE_ROOT).as_posix()}::{name}"
        for package in PACKAGES
        for path in (PACKAGE_ROOT / package).rglob("*.py")
        for name, *_ in _functions(path)
    }
    listed = [(name, n) for name, n in missed if name not in KEEP]
    stale = [
        (name, "names no function" if name not in defined else "was reached")
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
    return 1 if listed or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
