"""Executable regeneration of every table and figure of the paper.

Each function derives its artifact from the living implementation — if the
code drifts from the paper's specification, the corresponding artifact (and
its tests) change visibly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro.core.baselines import steering_processor
from repro.core.params import ProcessorParams
from repro.evaluation.report import render_table
from repro.fabric.allocation import EMPTY_ENCODING, SPAN_ENCODING, encoding_name
from repro.fabric.availability import available
from repro.fabric.configuration import (
    FFU_COUNTS,
    PREDEFINED_CONFIGS,
    steering_table,
)
from repro.fabric.fabric import Fabric
from repro.frontend.fetch import FetchedInstruction
from repro.frontend.memory import DataMemory
from repro.isa.assembler import assemble
from repro.isa.futypes import FU_TYPES, FUType
from repro.sched.ruu import RegisterUpdateUnit
from repro.steering.error_metric import exact_error
from repro.steering.selection import ConfigurationSelectionUnit
from repro.circuits.selection_netlist import wired_shift

__all__ = [
    "table1",
    "table2",
    "figure1_inventory",
    "figure2_selection_demo",
    "figure3_cem_study",
    "CemStudy",
    "figure456_wakeup_example",
    "figure7_availability_check",
    "eq1_check",
]


# ---------------------------------------------------------------- Table 1
def table1() -> str:
    """Table 1: functional units per configuration (fixed + steering)."""
    return steering_table(PREDEFINED_CONFIGS)


# ---------------------------------------------------------------- Table 2
def table2() -> str:
    """Table 2: the 3-bit resource-type encodings, including the special
    EMPTY and SPAN entries, and the slot cost of each type."""
    rows = [("000", "EMPTY", "-", "unoccupied slot")]
    for t in FU_TYPES:
        rows.append(
            (f"{t.encoding:03b}", t.short_name, str(t.slot_cost), t.name)
        )
    rows.append(("111", "SPAN", "-", "continuation of a multi-slot unit"))
    return render_table(
        ["encoding", "type", "slots", "meaning"], rows, title="Table 2: resource-type encodings"
    )


# --------------------------------------------------------------- Figure 1
def figure1_inventory() -> str:
    """Figure 1: the architecture's module inventory, taken from a live
    assembled processor (proves every box exists and is wired)."""
    proc = steering_processor(assemble("halt\n"), ProcessorParams())
    rows = [(module, impl) for module, impl in proc.module_inventory().items()]
    return render_table(["Fig. 1 module", "implementation"], rows,
                        title="Figure 1: architecture inventory")


# --------------------------------------------------------------- Figure 2
def figure2_selection_demo() -> str:
    """Figure 2: the four-stage selection unit evaluated end-to-end on the
    three characteristic queue contents (integer / memory / floating)."""
    unit = ConfigurationSelectionUnit()
    ffus_only = tuple(FFU_COUNTS[t] for t in FU_TYPES)
    queues = {
        "integer": "add x1,x2,x3\nsub x4,x5,x6\nxor x7,x8,x9\nand x1,x2,x3\n"
                   "mul x4,x5,x6\nmul x7,x8,x9\nadd x1,x1,x1\n",
        "memory": "lw x1,0(x9)\nlw x2,4(x9)\nsw x1,8(x9)\nlw x3,12(x9)\n"
                  "sw x2,16(x9)\nadd x4,x1,x2\nlw x5,20(x9)\n",
        "floating": "fadd f1,f2,f3\nfmul f4,f5,f6\nfsub f7,f8,f9\n"
                    "fdiv f1,f2,f3\nflw f4,0(x1)\nfadd f5,f6,f7\nfmul f8,f9,f1\n",
    }
    rows = []
    for name, src in queues.items():
        queue = assemble(src.replace(",", ", ")).instructions
        result = unit.select(queue, ffus_only)
        chosen = "current" if result.keeps_current else result.config.name
        rows.append(
            (
                name,
                "/".join(str(r) for r in result.required),
                "/".join(str(e) for e in result.errors),
                result.index,
                chosen,
            )
        )
    return render_table(
        ["queue", "required (per type)", "errors (cur/1/2/3)", "select", "configuration"],
        rows,
        title="Figure 2: selection unit end-to-end (current = FFUs only)",
    )


# --------------------------------------------------------------- Figure 3
@dataclass
class CemStudy:
    """Approximation study of the Fig. 3 shift-based divider."""

    max_term_error: float
    mean_term_error: float
    selection_agreement: float
    table: str
    shift_table: str


def figure3_cem_study(samples: int = 2000, seed: int = 0) -> CemStudy:
    """Figure 3: the CEM circuit versus exact division.

    Exhaustively compares the per-term shifter approximation against true
    division over every (required, available) pair, and measures how often
    the approximate metric selects the same configuration as the exact one
    over random queue requirement vectors.
    """
    # per-term error, exhaustive over required 0..7, available 1..7
    term_rows = []
    errors = []
    for avail in range(1, 8):
        shift = wired_shift(avail)
        for req in range(8):
            approx = req >> shift
            exact = req / avail
            errors.append(abs(approx - exact))
        term_rows.append(
            (
                avail,
                f">>{shift} (/{1 << shift})",
                f"{max(abs((r >> shift) - r / avail) for r in range(8)):.3f}",
            )
        )
    shift_table = render_table(
        ["available", "divider", "max |approx - exact| (req 0..7)"],
        term_rows,
        title="Figure 3(c): shift control vs exact division, per term",
    )

    # end-to-end selection agreement on random requirement vectors; the
    # shift metric's errors are the selection unit's (current = FFUs only)
    unit = ConfigurationSelectionUnit()
    rng = random.Random(seed)
    ffus_only = tuple(FFU_COUNTS[t] for t in FU_TYPES)
    candidates = []
    for cfg in PREDEFINED_CONFIGS:
        candidates.append(tuple(cfg.count(t) + FFU_COUNTS[t] for t in FU_TYPES))
    agree = 0
    for _ in range(samples):
        total = rng.randint(0, 7)
        required = [0] * 5
        for _ in range(total):
            required[rng.randrange(5)] += 1
        required = tuple(min(7, r) for r in required)
        approx_errs = unit.select_required(required, ffus_only).errors
        exact_errs = [exact_error(required, ffus_only)]
        for avail in candidates:
            exact_errs.append(exact_error(required, avail))
        if approx_errs.index(min(approx_errs)) == exact_errs.index(min(exact_errs)):
            agree += 1

    demo_rows = []
    for name, required in (
        ("integer-heavy", (5, 2, 0, 0, 0)),
        ("memory-heavy", (2, 0, 5, 0, 0)),
        ("fp-heavy", (1, 0, 1, 3, 2)),
        ("balanced", (2, 1, 2, 1, 1)),
    ):
        row = [name]
        cems = unit.select_required(required, ffus_only).errors
        for error, avail in zip(cems[1:], candidates):
            row.append(f"{error} ({exact_error(required, avail):.2f})")
        demo_rows.append(tuple(row))
    table = render_table(
        ["queue"] + [f"cfg {c.name}: approx (exact)" for c in PREDEFINED_CONFIGS],
        demo_rows,
        title="Figure 3: CEM output per candidate, approximate vs exact",
    )
    return CemStudy(
        max_term_error=max(errors),
        mean_term_error=sum(errors) / len(errors),
        selection_agreement=agree / samples,
        table=table,
        shift_table=shift_table,
    )


# ----------------------------------------------------------- Figures 4-6
_PAPER_EXAMPLE = """
    shift:  sll  x3, x1, x2      # Entry 1 (Shift)
    sub:    sub  x4, x5, x6      # Entry 2 (Sub)
    add:    add  x7, x3, x4      # Entry 3 (Add) <- Shift, Sub
    mul:    mul  x8, x4, x9      # Entry 4 (Mul) <- Sub
    load:   flw  f1, 0(x10)      # Entry 5 (Load)
    fpmul:  fmul f2, f1, f3      # Entry 6 (FPMul) <- Load
    fpadd:  fadd f4, f2, f5      # Entry 7 (FPAdd) <- FPMul
"""


def figure456_wakeup_example() -> str:
    """Figures 4-6: the paper's seven-instruction worked example.

    Builds the dependency graph of Fig. 4 as a real program, dispatches it
    into a live RUU, renders the wake-up array exactly as Fig. 5, and then
    runs the scheduler cycle by cycle showing the request/grant waves of
    the Fig. 6 logic.
    """
    program = assemble(_PAPER_EXAMPLE)
    fabric = Fabric(reconfig_latency=1)
    ruu = RegisterUpdateUnit(fabric, DataMemory(size=4096), window_size=7)
    names = ["Shift", "Sub", "Add", "Mul", "Load", "FPMul", "FPAdd"]
    for pc, instr in enumerate(program.instructions):
        ruu.dispatch(FetchedInstruction(pc=pc, instruction=instr, predicted_next=pc + 1))

    sections = ["Figure 4: dependency graph (producer -> consumer)"]
    for row, entry in sorted(ruu._entries.items()):
        deps = [
            names[b.producer_seq]
            for b in entry.sources
            if b is not None and b.producer_seq is not None
        ]
        arrow = f" <- {', '.join(deps)}" if deps else ""
        sections.append(f"  Entry {row + 1} ({names[row]}){arrow}")

    labels = {row: f"({names[row]}) E{row + 1}" for row in range(7)}
    sections.append("")
    sections.append("Figure 5: wake-up array contents")
    sections.append(ruu.wakeup.render(labels))

    sections.append("")
    sections.append("Figure 6: cycle-by-cycle requests and grants")
    for cycle in itertools.count():
        if ruu.empty or cycle > 60:
            break
        requests = ruu.wakeup.requests(
            ruu._resource_available_bits(), ruu._completed_bits
        )
        issued, _ = ruu.issue_and_execute()
        req_names = [names[r] for r in requests]
        grant_names = [names[seq] for seq in issued]
        retired = [names[e.seq] for e in ruu.retire()]
        sections.append(
            f"  cycle {cycle:2d}: request={req_names or '-'} "
            f"grant={grant_names or '-'} retire={retired or '-'}"
        )
        fabric.tick()
        ruu.tick()
    return "\n".join(sections)


# --------------------------------------------------------------- Figure 7
def eq1_check(samples: int = 500, seed: int = 0) -> tuple[int, int]:
    """Eq. 1: compare the availability circuit with its specification on
    random allocation/availability vectors.  Returns ``(cases,
    mismatches)``, one case per (vector, type) pair."""
    rng = random.Random(seed)
    cases = mismatches = 0
    for _ in range(samples):
        n = rng.randint(0, 12)
        entries = []
        for _ in range(n):
            entries.append(
                rng.choice(
                    [EMPTY_ENCODING, SPAN_ENCODING] + [int(t) for t in FU_TYPES]
                )
            )
        avail = [rng.random() < 0.5 for _ in entries]
        for t in FU_TYPES:
            spec = any(
                e == t.encoding and a for e, a in zip(entries, avail)
            )
            mismatches += available(t, entries, avail) != spec
            cases += 1
    return cases, mismatches


def figure7_availability_check(samples: int = 500, seed: int = 0) -> str:
    """Figure 7 / Eq. 1: the availability circuit checked against its
    specification over random allocation/availability vectors, plus a
    worked demonstration on a live fabric."""
    cases, mismatches = eq1_check(samples, seed)

    fabric = Fabric(reconfig_latency=1)
    fabric.rfus.begin_reconfigure(0, FUType.FP_ALU)
    while not fabric.rfus.bus_free:
        fabric.tick()
    fabric.issue(FUType.FP_ALU)  # FFU copy busy
    allocation, availability = fabric.full_allocation()
    rows = []
    for i, (e, a) in enumerate(zip(allocation, availability)):
        kind = f"slot {i}" if i < fabric.rfus.n_slots else f"FFU {i - fabric.rfus.n_slots}"
        rows.append((kind, f"{e:03b}", encoding_name(e), a))
    demo = render_table(
        ["entry", "encoding", "type", "available"],
        rows,
        title="Figure 7 inputs: allocation + availability vectors (live fabric)",
    )
    out = [
        f"Eq. 1 circuit verified against specification on {cases} "
        f"(type x vector) random cases: "
        + ("all agree." if not mismatches else f"{mismatches} DISAGREE."),
        "",
        demo,
        "",
        "available(t) per type: "
        + ", ".join(
            f"{t.short_name}={available(t, allocation, availability)}"
            for t in FU_TYPES
        ),
    ]
    return "\n".join(out)
