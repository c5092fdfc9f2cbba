"""Cycle observers, per-cycle event records and ASCII timelines.

A :class:`~repro.core.processor.Processor` built with ``observer=obs``
calls two hooks; any object with both methods is an observer:

* ``obs.on_stage(proc, stage)`` as each pipeline stage starts, ``stage``
  naming it: ``retire``, ``wakeup_select_execute``, ``dispatch``,
  ``fetch``, ``steer``, ``tick`` (``repro.telemetry.STAGES``);
* ``obs.on_cycle(proc, packet, dispatched, issued, retired, flushed)``
  after the tick, with the cycle's raw facts: the fetch packet, the
  dispatched and issued sequence numbers, the retired entries and the
  number of squashed entries.  ``proc.cycle_count`` still names the
  cycle just executed.

Observers only read.  This module provides two: :class:`EventRecorder`
keeps a :class:`CycleEvents` per cycle (the fabric-occupancy timeline of
``repro trace`` and ``examples/pipeline_trace.py``), and
:class:`SteeringTrace` keeps the configuration manager's selection runs,
one entry per steering decision.

Slot glyphs: one character per reconfigurable slot —

* ``.``  empty slot
* ``*``  slot under reconfiguration (configuration bus busy on it)
* letter = configured unit type (``A`` IALU, ``M`` IMDU, ``L`` LSU,
  ``F`` FPALU, ``D`` FPMDU); lowercase while the unit is executing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.fabric import Fabric
from repro.isa.futypes import FUType

__all__ = [
    "CycleEvents",
    "EventRecorder",
    "SteeringTrace",
    "slot_glyphs",
    "render_fabric_timeline",
]

_GLYPH = {
    FUType.INT_ALU: "A",
    FUType.INT_MDU: "M",
    FUType.LSU: "L",
    FUType.FP_ALU: "F",
    FUType.FP_MDU: "D",
}


@dataclass(frozen=True)
class CycleEvents:
    """What happened in one processor cycle."""

    cycle: int
    fetched: tuple[int, ...] = ()       # PCs fetched this cycle
    dispatched: tuple[int, ...] = ()    # seq numbers entering the window
    issued: tuple[int, ...] = ()        # seq numbers granted execution
    retired: tuple[int, ...] = ()       # seq numbers committed
    flushed: int = 0                    # entries squashed by a mispredict
    slots: str = ""                     # fabric occupancy glyphs
    #: candidate index the paper's selection unit chose (None = a policy
    #: without one).
    selection: int | None = None


def slot_glyphs(fabric: Fabric) -> str:
    """One glyph per reconfigurable slot (see module docstring)."""
    out = []
    for slot in fabric.rfus.slots:
        if slot.is_reconfiguring:
            out.append("*")
            continue
        head = fabric.rfus.head_of(slot.index)
        if head is None:
            out.append(".")
            continue
        unit = fabric.rfus.slots[head].unit
        glyph = _GLYPH[unit.fu_type]
        out.append(glyph.lower() if not unit.available else glyph)
    return "".join(out)


class EventRecorder:
    """Observer keeping one :class:`CycleEvents` per simulated cycle."""

    def __init__(self) -> None:
        self.events: list[CycleEvents] = []
        self._slots = ""

    def on_stage(self, proc, stage: str) -> None:
        if stage == "tick":
            # the fabric as the cycle leaves it, before units count down
            self._slots = slot_glyphs(proc.fabric)

    def on_cycle(self, proc, packet, dispatched, issued, retired, flushed) -> None:
        result = proc.policy.last_result
        self.events.append(
            CycleEvents(
                cycle=proc.cycle_count,
                fetched=tuple(f.pc for f in packet),
                dispatched=tuple(dispatched),
                issued=tuple(issued),
                retired=tuple(e.seq for e in retired),
                flushed=flushed,
                slots=self._slots,
                selection=None if result is None else result.index,
            )
        )


class SteeringTrace:
    """Observer keeping the configuration manager's selection runs.

    Needs the paper's manager (:class:`~repro.core.policies.
    PaperSteering`).  A run is ``[selection, first_cycle, length]``: the
    candidate index it selected (0 = current) and the consecutive
    cycles, from ``proc.cycle_count`` on, it stayed selected.  A new run
    starts each time ``policy.last_result.index`` changes, so the record
    grows with the decisions, not with the cycles; the lengths sum to the
    cycles observed.  The loads the decisions start are
    ``policy.loader.history``.
    """

    def __init__(self) -> None:
        self.runs: list[list[int]] = []

    def on_stage(self, proc, stage: str) -> None:
        pass

    def on_cycle(self, proc, packet, dispatched, issued, retired, flushed) -> None:
        selection = proc.policy.last_result.index
        runs = self.runs
        if runs and runs[-1][0] == selection:
            runs[-1][2] += 1
        else:
            runs.append([selection, proc.cycle_count, 1])


def render_fabric_timeline(
    events: list[CycleEvents],
    stride: int = 1,
    max_rows: int = 200,
) -> str:
    """Render the slot-occupancy history, one row per ``stride`` cycles.

    Rows also show the pipeline activity of the sampled cycle:
    fetch/dispatch/issue/retire counts and steering selection.
    """
    header = "cycle   slots     F D I R  sel"
    lines = [header, "-" * len(header)]
    shown = 0
    for i in range(0, len(events), stride):
        if shown >= max_rows:
            # With stride > 1 only every stride-th cycle would have become
            # a row, so report both counts: rows suppressed and the raw
            # cycles (sampled or not) the truncation hides.
            remaining = len(events) - i
            if stride > 1:
                rows_left = (remaining + stride - 1) // stride
                lines.append(
                    f"... ({rows_left} more rows, {remaining} more cycles)"
                )
            else:
                lines.append(f"... ({remaining} more cycles)")
            break
        e = events[i]
        sel = "-" if e.selection is None else str(e.selection)
        lines.append(
            f"{e.cycle:6d}  {e.slots:<8s}  "
            f"{len(e.fetched)} {len(e.dispatched)} {len(e.issued)} "
            f"{len(e.retired)}  {sel}"
            + ("  FLUSH" if e.flushed else "")
        )
        shown += 1
    return "\n".join(lines)
