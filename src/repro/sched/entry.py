"""The in-flight instruction record: one row of the dependency buffer.

Carries everything the register update unit tracks between dispatch and
retirement: source bindings (producer sequence numbers or architectural
reads), the functional unit executing it, the computed result, and — for
memory instructions — the effective address and buffered store data.  The
cycle an issued entry completes is kept by the register update unit's
due-cycle map, not by the entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.fabric.units import FunctionalUnit
from repro.frontend.fetch import FetchedInstruction
from repro.isa.futypes import FUType
from repro.isa.instruction import Instruction

__all__ = ["EntryState", "SourceBinding", "RuuEntry"]


class EntryState(enum.Enum):
    WAITING = "waiting"      # in the wake-up array, not yet granted
    ISSUED = "issued"        # executing on a functional unit
    COMPLETED = "completed"  # result available, awaiting in-order retire


@dataclass(frozen=True, slots=True)
class SourceBinding:
    """Where one source operand comes from."""

    reg_class: str
    index: int
    #: sequence number of the in-flight producer, or None to read the
    #: architectural register file.
    producer_seq: int | None


@dataclass(slots=True)
class RuuEntry:
    """One dispatched instruction."""

    seq: int
    fetched: FetchedInstruction
    #: positional bindings for (src1, src2); None = unused or hard-wired x0.
    sources: tuple[SourceBinding | None, SourceBinding | None]
    state: EntryState = EntryState.WAITING
    # invariant views of ``fetched.instruction``, materialised once at
    # construction: the scheduler reads these every cycle, and a chain of
    # property hops showed up in the per-cycle profile.
    instruction: Instruction = field(init=False)
    fu_type: FUType = field(init=False)
    is_load: bool = field(init=False)
    is_store: bool = field(init=False)
    #: computed result value (int regs as u32, fp as float), if any.
    result: int | float | None = None
    #: resolved next PC for control instructions.
    actual_next: int | None = None
    #: did this control instruction mispredict?
    mispredicted: bool = False
    # memory instructions -------------------------------------------------
    mem_addr: int | None = None
    mem_size: int | None = None
    store_data: bytes | None = None
    #: unit executing/having executed this entry (released at completion
    #: or when a flush squashes the entry).
    unit: FunctionalUnit | None = None
    #: cycle the entry was granted execution (trace/debug).
    issue_cycle: int | None = None

    def __post_init__(self) -> None:
        instruction = self.fetched.instruction
        self.instruction = instruction
        self.fu_type = instruction.fu_type
        self.is_load = instruction.is_load
        self.is_store = instruction.is_store

    @property
    def pc(self) -> int:
        return self.fetched.pc

    @property
    def completed(self) -> bool:
        return self.state is EntryState.COMPLETED
