"""The in-flight instruction record: one row of the dependency buffer.

Carries everything the register update unit tracks between dispatch and
retirement: the wake-up row the entry occupies, the in-flight entries
producing its two source operands (its forwarding paths), the functional
unit executing it, the computed result, and — for memory instructions —
the effective address and buffered store data.  The cycle an issued entry
completes is kept by the register update unit's due-cycle map, not by the
entry.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.fabric.units import FunctionalUnit
from repro.frontend.fetch import FetchedInstruction

__all__ = ["EntryState", "SourceBinding", "RuuEntry"]


class EntryState(enum.Enum):
    WAITING = "waiting"      # in the wake-up array, not yet granted
    ISSUED = "issued"        # executing on a functional unit
    COMPLETED = "completed"  # result available, awaiting in-order retire


#: the states as module constants: the scheduler tests them every cycle,
#: and a member loaded through its enum class is a slow attribute load.
_WAITING = EntryState.WAITING
_COMPLETED = EntryState.COMPLETED


class SourceBinding(NamedTuple):
    """Where one source operand comes from (a read-only view derived by
    :attr:`RuuEntry.sources`)."""

    reg_class: str
    index: int
    #: sequence number of the producer in flight at dispatch, or None when
    #: the operand was read from the architectural register file.
    producer_seq: int | None


def _binding(src, producer: RuuEntry | None) -> SourceBinding | None:
    if src is None:
        return None
    return SourceBinding(src[0], src[1], None if producer is None else producer.seq)


class RuuEntry:
    """One dispatched instruction.

    A plain ``__slots__`` record built once per dispatch.  The invariant
    views of ``fetched.instruction`` (``instruction``, ``fu_type``,
    ``is_load``, ``is_store``) are copied at construction: the scheduler
    reads them every cycle.
    """

    __slots__ = (
        "seq",
        "fetched",
        "instruction",
        "fu_type",
        "is_load",
        "is_store",
        "row",
        "producer1",
        "producer2",
        "state",
        "retired",
        "result",
        "actual_next",
        "mispredicted",
        "mem_addr",
        "mem_size",
        "store_data",
        "unit",
        "issue_cycle",
    )

    def __init__(
        self,
        seq: int,
        fetched: FetchedInstruction,
        row: int = -1,
        producer1: RuuEntry | None = None,
        producer2: RuuEntry | None = None,
    ) -> None:
        instruction = fetched.instruction
        self.seq = seq
        self.fetched = fetched
        self.instruction = instruction
        self.fu_type = instruction.fu_type
        self.is_load = instruction.is_load
        self.is_store = instruction.is_store
        #: wake-up row the entry occupies while in flight.
        self.row = row
        #: the entries producing (src1, src2), bound at dispatch: the
        #: youngest older in-flight writer of each source register, or
        #: None to read the architectural register file.  Cleared when
        #: this entry retires.
        self.producer1 = producer1
        self.producer2 = producer2
        self.state = _WAITING
        #: set at retirement: a consumer then reads the register file.
        self.retired = False
        #: computed result value (int regs as u32, fp as float), if any.
        self.result: int | float | None = None
        #: resolved next PC for control instructions.
        self.actual_next: int | None = None
        #: did this control instruction mispredict?
        self.mispredicted = False
        # memory instructions ---------------------------------------------
        self.mem_addr: int | None = None
        self.mem_size: int | None = None
        self.store_data: bytes | None = None
        #: unit executing/having executed this entry (released at
        #: completion or when a flush squashes the entry).
        self.unit: FunctionalUnit | None = None
        #: cycle the entry was granted execution (trace/debug).
        self.issue_cycle: int | None = None

    @property
    def sources(self) -> tuple[SourceBinding | None, SourceBinding | None]:
        """Positional bindings for (src1, src2), derived on demand; None =
        unused or hard-wired x0.  Describes the entry while it is in
        flight: retirement drops the producer links, so a retired entry's
        bindings name no producer."""
        src1, src2, _ = self.instruction.dispatch_template
        return _binding(src1, self.producer1), _binding(src2, self.producer2)

    @property
    def pc(self) -> int:
        return self.fetched.pc

    @property
    def completed(self) -> bool:
        return self.state is _COMPLETED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RuuEntry seq={self.seq} {self.instruction.mnemonic} "
            f"row={self.row} {self.state.value}>"
        )
