"""Instruction scheduling and execution (Section 4 of the paper).

The scheduler is the select-free wake-up array of Brown/Stark/Patt [9]
adapted to a reconfigurable fabric: the resource-available columns are
driven by the Eq. 1 availability circuit, so instructions wake up only when
a unit of their type is *configured and idle* — units appear and disappear
as the fabric reconfigures.

* :mod:`repro.sched.wakeup` — the bit-level wake-up array (Figs. 5 and 6):
  resource vectors, dependency columns, scheduled bits, request logic;
* :mod:`repro.sched.select` — grant arbitration (oldest-first) between
  instructions contending for the same unit type;
* :mod:`repro.sched.regfile` — the architectural register files;
* :mod:`repro.sched.entry` — the in-flight instruction record (dependency
  buffer row: wake-up row, producer entries, result, store data);
* :mod:`repro.sched.ruu` — the register update unit: dispatch with
  renaming to producer entries, out-of-order issue, operand forwarding,
  store buffering, branch repair and in-order retirement, each stage one
  call per cycle.
"""

from repro.sched.entry import EntryState, RuuEntry
from repro.sched.regfile import RegisterFile
from repro.sched.ruu import RegisterUpdateUnit
from repro.sched.select import select_grants
from repro.sched.wakeup import WakeupArray

__all__ = [
    "WakeupArray",
    "select_grants",
    "RegisterFile",
    "RuuEntry",
    "EntryState",
    "RegisterUpdateUnit",
]
