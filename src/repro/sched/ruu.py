"""The register update unit (RUU).

Per the paper, the RUU "collects decoded instructions from the instruction
queue and dispatches them to the various functional units", resolves all
register dependences through its dependency buffer, performs out-of-order
execution with in-order completion, and forwards operands.  This
implementation adds the substrate details a working processor needs:

* **renaming by sequence number** — each dispatched instruction records,
  per source, the youngest older in-flight writer of that register (or the
  architectural file when none), which is both the wake-up dependence and
  the operand forwarding path;
* **store buffering** — stores compute address and data at execute and
  write memory at retirement; loads issue only when every older store's
  address is known, forwarding from an exact-match store and stalling on a
  partial overlap;
* **branch repair** — control instructions resolve at execute; the caller
  flushes younger entries on a mispredict via :meth:`flush_younger`;
* **in-order retirement** — up to ``retire_width`` completed entries leave
  per cycle in dispatch order, committing register and memory state;
* **completion by event** — issuing an instruction of latency *L* files
  it in a due-cycle map under cycle ``clock + L - 1``; :meth:`tick`
  completes that cycle's entries and releases their units, so no per-unit
  or per-entry count-down is swept every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulerError
from repro.fabric.fabric import Fabric
from repro.frontend.fetch import FetchedInstruction
from repro.frontend.memory import DataMemory
from repro.isa import semantics
from repro.isa.futypes import FU_TYPES, FUType
from repro.isa.instruction import Instruction
from repro.sched.entry import EntryState, RuuEntry, SourceBinding
from repro.sched.regfile import RegisterFile
from repro.sched.wakeup import WakeupArray

__all__ = ["BranchResolution", "IssueReport", "RegisterUpdateUnit"]

#: the resource-available bus with every unit type available.
_ALL_RESOURCES = (1 << len(FU_TYPES)) - 1


@dataclass(frozen=True, slots=True)
class BranchResolution:
    """A control instruction resolved this cycle."""

    entry: RuuEntry
    taken: bool
    target: int
    mispredicted: bool


@dataclass(slots=True)
class IssueReport:
    """What happened during one issue/execute step."""

    granted: list[int] = field(default_factory=list)
    #: sequence numbers issued this cycle, oldest first (what the processor
    #: records — returned directly so callers never rescan the window).
    issued: list[int] = field(default_factory=list)
    resolutions: list[BranchResolution] = field(default_factory=list)
    #: loads denied a grant by memory-ordering this cycle (statistics).
    memory_stalls: int = 0
    #: rows whose wake-up logic requested execution this cycle.
    requests: int = 0
    #: occupied, unissued rows whose producers were all ready but whose
    #: unit type had no idle unit (structural / configuration stalls).
    resource_blocked: int = 0


class RegisterUpdateUnit:
    """Dependency buffer + wake-up array + retirement logic."""

    def __init__(
        self,
        fabric: Fabric,
        dmem: DataMemory,
        window_size: int = 7,
        retire_width: int = 4,
        pipelined_scheduling: bool = False,
    ) -> None:
        self.fabric = fabric
        self.dmem = dmem
        self.wakeup = WakeupArray(window_size)
        self.regfile = RegisterFile()
        self.retire_width = retire_width
        #: [9]'s pipelined select-free mode: the wake-up logic sees the
        #: *previous* cycle's resource-availability bus (as a pipelined
        #: scheduler would), so grants are speculative — a grant whose unit
        #: was taken in the meantime is squashed via the reschedule input.
        self.pipelined_scheduling = pipelined_scheduling
        self._stale_resource_bits: int | None = None
        #: rows that lost a select-free collision, awaiting reschedule.
        self._pending_reschedule: list[int] = []
        #: speculative grants rescheduled because their unit disappeared.
        self.scheduling_replays = 0
        #: row index -> in-flight entry (parallel to the wake-up array).
        self._entries: dict[int, RuuEntry] = {}
        #: result-available bus, maintained incrementally: bit ``row`` set
        #: while the entry in that row is COMPLETED.  Updated at the state
        #: transitions (countdown expiry, retire, flush) instead of being
        #: rebuilt from the window every cycle.
        self._completed_bits = 0
        #: in-flight entries oldest first.  Sequence numbers are allocated
        #: monotonically, retirement removes from the front and flushes
        #: truncate the tail, so plain appends keep this sorted — the
        #: per-cycle ``sorted()`` rescans of the seed implementation become
        #: list reads.
        self._order: list[RuuEntry] = []
        #: seq -> wake-up row of the in-flight entry holding it.
        self._row_by_seq: dict[int, int] = {}
        #: youngest in-flight writer of each register: (class, idx) -> seq.
        self._rename: dict[tuple[str, int], int] = {}
        self._next_seq = 0
        #: the RUU's own cycle counter, advanced by :meth:`tick`.
        self.clock = 0
        #: due cycle -> ``(row, entry)`` pairs issued to complete at the end
        #: of that cycle.  A squashed entry stays filed until its due cycle
        #: and is skipped there by an identity check against the window.
        self._due: dict[int, list[tuple[int, RuuEntry]]] = {}
        #: per-cycle scratch containers, reused so the issue/dispatch hot
        #: paths allocate nothing (HOT001/HOT002 discipline).
        self._scratch_remaining: dict[FUType, int] = {}
        self._scratch_dep_rows: set[int] = set()
        self.halted = False
        # statistics ------------------------------------------------------
        self.dispatched = 0
        self.retired = 0
        self.flushed = 0
        self.memory_stalls = 0
        self.issued_per_type: dict[FUType, int] = {t: 0 for t in FU_TYPES}

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return self.wakeup.full

    @property
    def empty(self) -> bool:
        return not self._entries

    def in_order(self) -> list[RuuEntry]:
        """In-flight entries oldest first."""
        return list(self._order)

    # repro: allow[HOT001] -- interface contract: callers receive a fresh
    # list they may keep across cycles (steering policies slice and store it)
    def ready_unscheduled(self) -> list[Instruction]:
        """The instructions the configuration manager inspects: queue
        entries that have not yet been granted execution."""
        return [
            e.instruction
            for e in self._order
            if e.state is EntryState.WAITING
        ]

    def _row_of_seq(self, seq: int) -> int | None:
        return self._row_by_seq.get(seq)

    # ----------------------------------------------------------- dispatch
    def dispatch(self, fetched: FetchedInstruction) -> RuuEntry:
        """Insert one decoded instruction into the window."""
        if self.full:
            raise SchedulerError("RUU window is full")
        instr = fetched.instruction
        src1, src2, dest = instr.dispatch_template
        rename = self._rename
        row_by_seq = self._row_by_seq
        # reused scratch: WakeupArray.insert only iterates it, never keeps it
        dep_rows = self._scratch_dep_rows
        dep_rows.clear()
        b1 = b2 = None
        if src1 is not None:
            producer_seq = rename.get(src1)
            b1 = SourceBinding(src1[0], src1[1], producer_seq)
            if producer_seq is not None and producer_seq in row_by_seq:
                dep_rows.add(row_by_seq[producer_seq])
        if src2 is not None:
            producer_seq = rename.get(src2)
            b2 = SourceBinding(src2[0], src2[1], producer_seq)
            if producer_seq is not None and producer_seq in row_by_seq:
                dep_rows.add(row_by_seq[producer_seq])

        row = self.wakeup.insert(instr.fu_type, dep_rows)
        seq = self._next_seq
        entry = RuuEntry(seq=seq, fetched=fetched, sources=(b1, b2))
        self._next_seq = seq + 1
        self._entries[row] = entry
        self._order.append(entry)
        row_by_seq[seq] = row
        if dest is not None:
            rename[dest] = seq
        self.dispatched += 1
        return entry

    # ------------------------------------------------------------ operands
    def _operand(self, binding: SourceBinding | None) -> int | float:
        if binding is None:
            return 0
        if binding.producer_seq is not None:
            row = self._row_of_seq(binding.producer_seq)
            if row is not None:
                producer = self._entries[row]
                if not producer.completed:
                    raise SchedulerError(
                        f"operand read before producer seq={producer.seq} completed"
                    )
                return producer.result
        return self.regfile.read(binding.reg_class, binding.index)

    # -------------------------------------------------------- memory rules
    def _older_stores(self, entry: RuuEntry) -> list[RuuEntry]:
        out = []
        for e in self._order:  # oldest first, so stop at the entry itself
            if e.seq >= entry.seq:
                break
            if e.is_store:
                out.append(e)
        return out

    def _load_memory_check(self, entry: RuuEntry) -> tuple[bool, RuuEntry | None]:
        """May this load issue, and from which store (if any) to forward?

        Conservative disambiguation: every older in-flight store must have
        computed its address; an exact address+size match forwards from the
        youngest such store; any partial overlap blocks the load until the
        store retires.
        """
        addr = semantics.effective_address(
            entry.instruction, int(self._operand(entry.sources[0]))
        )
        size = semantics.access_size(entry.instruction)
        forward: RuuEntry | None = None
        for store in self._older_stores(entry):
            if store.mem_addr is None:
                return False, None  # unknown older address: wait
            lo, hi = store.mem_addr, store.mem_addr + store.mem_size
            if hi <= addr or lo >= addr + size:
                continue  # disjoint
            if store.mem_addr == addr and store.mem_size == size:
                forward = store  # youngest exact match wins (kept updating)
            else:
                return False, None  # partial overlap: wait for retirement
        return True, forward

    # --------------------------------------------------------------- issue
    def _resource_available_bits(self) -> int:
        # the fabric's cached Eq. 1 bus (recomputed only when a unit's busy
        # state or the configured structure actually changed)
        return self.fabric.availability_bits()

    def _result_available_bits(self) -> int:
        return self._completed_bits

    def issue_and_execute(self) -> IssueReport:
        """One issue step: wake-up requests, grants, functional execution."""
        report = IssueReport()
        # de-assert the scheduled bit of last cycle's collision losers (the
        # Fig. 6 reschedule input): they re-request from this cycle on
        for row in self._pending_reschedule:
            if row in self._entries and self._entries[row].state is EntryState.WAITING:
                self.wakeup.reschedule(row)
        self._pending_reschedule.clear()

        result_bits = self._result_available_bits()
        live_bits = self._resource_available_bits()
        if self.pipelined_scheduling:
            wakeup_bits = (
                self._stale_resource_bits
                if self._stale_resource_bits is not None
                else live_bits
            )
            self._stale_resource_bits = live_bits
        else:
            wakeup_bits = live_bits
        req_mask = self.wakeup.requests_mask(wakeup_bits, result_bits)
        report.requests = req_mask.bit_count()
        # rows ready on data but blocked on a unit: what steering fixes
        # (none when every unit type is available)
        if wakeup_bits != _ALL_RESOURCES:
            report.resource_blocked = (
                self.wakeup.requests_mask(_ALL_RESOURCES, result_bits).bit_count()
                - report.requests
            )
        # oldest-first grants (the select_grants arbitration) over the
        # requesting rows only: their set bits, ordered by sequence number
        granted_rows: list[int] = []
        if req_mask:
            # overwrite-in-place copy of the live counts (all five types are
            # always keyed), so the grant loop can decrement freely
            remaining = self._scratch_remaining
            remaining.update(self.fabric.idle_counts())
            entries = self._entries
            requesting = []
            m = req_mask
            while m:
                low = m & -m
                row = low.bit_length() - 1
                m ^= low
                requesting.append((entries[row].seq, row))
            requesting.sort()
            for _, row in requesting:
                fu_type = entries[row].fu_type
                if remaining[fu_type] > 0:
                    remaining[fu_type] -= 1
                    granted_rows.append(row)
        if self.pipelined_scheduling and req_mask:
            # select-free [9]: every requester considered itself scheduled;
            # collision losers are squashed and replay via reschedule
            loser_mask = req_mask
            for row in granted_rows:
                loser_mask &= ~(1 << row)
            while loser_mask:
                low = loser_mask & -loser_mask
                row = low.bit_length() - 1
                loser_mask ^= low
                self.wakeup.mark_scheduled(row)
                self._pending_reschedule.append(row)
                self.scheduling_replays += 1
        for row in granted_rows:
            entry = self._entries[row]
            if entry.is_load:
                ok, forward = self._load_memory_check(entry)
                if not ok:
                    report.memory_stalls += 1
                    self.memory_stalls += 1
                    continue  # request persists next cycle
                self._execute_load(entry, forward)
            elif entry.is_store:
                self._execute_store(entry)
            elif entry.instruction.is_control:
                resolution = self._execute_control(entry)
                report.resolutions.append(resolution)
            else:
                self._execute_alu(entry)
            entry.unit = self.fabric.issue(entry.fu_type, entry.seq)
            entry.state = EntryState.ISSUED
            entry.issue_cycle = self.clock
            due = self.clock + entry.instruction.latency - 1
            filed = self._due.get(due)
            if filed is None:
                self._due[due] = [(row, entry)]
            else:
                filed.append((row, entry))
            self.wakeup.mark_scheduled(row)
            self.issued_per_type[entry.fu_type] += 1
            report.granted.append(row)
            report.issued.append(entry.seq)
        return report

    # ------------------------------------------------------ execution kinds
    def _execute_alu(self, entry: RuuEntry) -> None:
        s1 = self._operand(entry.sources[0])
        s2 = self._operand(entry.sources[1])
        entry.result = semantics.alu_result(entry.instruction, s1, s2)

    def _execute_control(self, entry: RuuEntry) -> BranchResolution:
        s1 = int(self._operand(entry.sources[0]))
        s2 = int(self._operand(entry.sources[1]))
        taken, target, link = semantics.control_outcome(
            entry.instruction, entry.pc, s1, s2
        )
        entry.result = link
        entry.actual_next = target
        entry.mispredicted = target != entry.fetched.predicted_next
        return BranchResolution(
            entry=entry, taken=taken, target=target, mispredicted=entry.mispredicted
        )

    def _execute_load(self, entry: RuuEntry, forward: RuuEntry | None) -> None:
        base = int(self._operand(entry.sources[0]))
        addr = semantics.effective_address(entry.instruction, base)
        size = semantics.access_size(entry.instruction)
        entry.mem_addr, entry.mem_size = addr, size
        raw = forward.store_data if forward is not None else self.dmem.load(addr, size)
        entry.result = semantics.load_value(entry.instruction, raw)

    def _execute_store(self, entry: RuuEntry) -> None:
        base = int(self._operand(entry.sources[0]))
        value = self._operand(entry.sources[1])
        entry.mem_addr = semantics.effective_address(entry.instruction, base)
        entry.mem_size = semantics.access_size(entry.instruction)
        entry.store_data = semantics.store_bytes(entry.instruction, value)

    # ---------------------------------------------------------------- tick
    def tick(self) -> None:
        """End the cycle: complete the entries due now, then advance the clock.

        A completing entry asserts its result-available line (its row's bit
        in the incrementally-maintained ``_completed_bits`` bus) and
        releases its unit.  An entry a flush squashed is no longer in its
        row and is skipped."""
        due = self._due.pop(self.clock, None)
        if due is not None:
            entries = self._entries
            bits = self._completed_bits
            completed = EntryState.COMPLETED
            for row, entry in due:
                if entries.get(row) is entry:
                    entry.state = completed
                    bits |= 1 << row
                    entry.unit.release()
            self._completed_bits = bits
        self.clock += 1

    # -------------------------------------------------------------- retire
    def retire(self) -> list[RuuEntry]:
        """In-order retirement of up to ``retire_width`` completed entries."""
        retired: list[RuuEntry] = []
        order = self._order
        while len(retired) < self.retire_width and order:
            head = order[0]
            if not head.completed:
                break
            row = self._row_by_seq.pop(head.seq)
            self._commit(head)
            self.wakeup.remove(row)
            self._completed_bits &= ~(1 << row)
            del self._entries[row]
            order.pop(0)
            dest = head.instruction.dispatch_template[2]
            if dest is not None and self._rename.get(dest) == head.seq:
                del self._rename[dest]
            retired.append(head)
            self.retired += 1
            if head.instruction.is_halt:
                self.halted = True
                break
        return retired

    def _commit(self, entry: RuuEntry) -> None:
        if entry.is_store:
            self.dmem.store(entry.mem_addr, entry.store_data)
            return
        dest = entry.instruction.destination()
        if dest is not None and entry.result is not None:
            self.regfile.write(dest[0], dest[1], entry.result)

    # --------------------------------------------------------------- flush
    def flush_younger(self, seq: int) -> int:
        """Squash every entry younger than ``seq`` (mispredict recovery).

        Releases any functional units the squashed entries hold and rebuilds
        the rename map from the survivors.  Returns the number squashed.
        """
        victims = [
            (row, e) for row, e in self._entries.items() if e.seq > seq
        ]
        for row, e in victims:
            if e.state is EntryState.ISSUED:
                e.unit.release()
            self.wakeup.remove(row)
            self._completed_bits &= ~(1 << row)
            del self._entries[row]
            del self._row_by_seq[e.seq]
        self._order = [e for e in self._order if e.seq <= seq]
        self._rename = {}
        for e in self._order:
            dest = e.instruction.destination()
            if dest is not None:
                self._rename[dest] = e.seq
        self.flushed += len(victims)
        return len(victims)

    # ------------------------------------------------------------- helpers
    def render_wakeup(self) -> str:
        """The Fig. 5 matrix with mnemonic row labels."""
        labels = {
            row: f"({e.instruction.mnemonic}) E{row + 1}"
            for row, e in self._entries.items()
        }
        return self.wakeup.render(labels)
