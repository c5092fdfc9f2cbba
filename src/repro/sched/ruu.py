"""The register update unit (RUU).

Per the paper, the RUU "collects decoded instructions from the instruction
queue and dispatches them to the various functional units", resolves all
register dependences through its dependency buffer, performs out-of-order
execution with in-order completion, and forwards operands.  This
implementation adds the substrate details a working processor needs:

* **producer-bound entries** — the rename map holds each register's
  youngest in-flight writer *entry*, and dispatch binds every source of
  a new entry to that producer (or to the architectural file when none).
  The producer's row is the wake-up dependence (``1 << producer.row`` in
  the dependence mask), and the producer itself is the forwarding path:
  an operand comes from the producer while it is in flight and from the
  register file once it has retired;
* **store buffering** — stores compute address and data at execute and
  write memory at retirement; loads issue only when every older store's
  address is known, forwarding from an exact-match store and stalling on a
  partial overlap;
* **branch repair** — control instructions resolve at execute; the caller
  flushes younger entries on a mispredict via :meth:`flush_younger`;
* **in-order retirement** — up to ``retire_width`` completed entries leave
  per cycle in dispatch order, committing register and memory state;
* **one pass per grant** — the issue step arbitrates the requesting rows
  oldest first, and each grant reads its operands, executes (an ALU
  instruction through the ``alu_handler`` bound at decode), occupies its
  unit through :meth:`Fabric.issue`, is filed and sets its scheduled bit
  in the same pass;
* **completion by event** — issuing an instruction of latency *L* files
  it in a due-cycle map under cycle ``clock + L - 1``; :meth:`tick`
  completes that cycle's entries and frees their units through
  :meth:`Fabric.release`, so no per-unit or per-entry count-down is swept
  every cycle;
* **busy unit-cycles by event** — each occupancy adds its length to a
  per-type total when the unit is released (a completion adds
  ``clock - issue_cycle + 1``, a squash ``clock - issue_cycle``), and
  :meth:`busy_unit_cycles` adds the units still in flight;
* **idle-issue reuse** — an issue step that raised no request leaves no
  trace, so while its inputs (the result-available and availability
  buses, the stale bus of pipelined scheduling and the wake-up array's
  packed state) stay equal, :meth:`issue_and_execute` returns that step's
  report again instead of re-evaluating the wake-up logic;
* **stall counts** — each issue step, a reused one included, adds its
  resource-blocked rows and its contention (requests that won no grant)
  to the running totals :attr:`resource_blocked_cycles` and
  :attr:`contention_cycles`;
* **waiting demand** — :attr:`waiting_demand` is the per-type count of
  the WAITING entries, packed one type per field
  (:data:`~repro.isa.futypes.COUNT_ONE`) and updated at dispatch, grant
  and flush: the steering policies read the window's demand from it
  instead of rebuilding and decoding :meth:`ready_unscheduled`.  A load
  denied by memory ordering and a select-free collision loser stay
  WAITING, so they stay counted.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import SchedulerError
from repro.fabric.fabric import Fabric
from repro.frontend.fetch import FetchedInstruction
from repro.frontend.memory import DataMemory
from repro.isa import semantics
from repro.isa.futypes import COUNT_ONE, FU_TYPES, FUType
from repro.isa.instruction import Instruction
from repro.sched.entry import EntryState, RuuEntry
from repro.sched.regfile import RegisterFile
from repro.sched.wakeup import WakeupArray

__all__ = ["BranchResolution", "IssueReport", "RegisterUpdateUnit"]

#: the resource-available bus with every unit type available.
_ALL_RESOURCES = (1 << len(FU_TYPES)) - 1

#: the entry states as module constants: loading an enum member through
#: its class is a slow attribute load, and these are tested every cycle.
_WAITING = EntryState.WAITING
_ISSUED = EntryState.ISSUED
_COMPLETED = EntryState.COMPLETED


class BranchResolution(NamedTuple):
    """A control instruction resolved this cycle."""

    entry: RuuEntry
    taken: bool
    target: int
    mispredicted: bool


class IssueReport:
    """What happened during one issue/execute step."""

    __slots__ = (
        "granted", "issued", "resolutions", "memory_stalls", "resource_blocked",
    )

    def __init__(self) -> None:
        #: rows granted and issued this cycle.
        self.granted: list[int] = []
        #: sequence numbers issued this cycle, oldest first (what the
        #: processor records — returned directly so callers never rescan
        #: the window).
        self.issued: list[int] = []
        self.resolutions: list[BranchResolution] = []
        #: loads denied a grant by memory-ordering this cycle (statistics).
        self.memory_stalls = 0
        #: occupied, unissued rows whose producers were all ready but whose
        #: unit type had no idle unit (structural / configuration stalls).
        self.resource_blocked = 0


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
        #: the fabric's availability cache and slot array, read flat by
        #: the issue step (see :meth:`issue_and_execute`).
        self._avail = fabric._avail
        self._rfus = fabric.rfus
        self.dmem = dmem
        self.wakeup = WakeupArray(window_size)
        self.regfile = RegisterFile()
        #: register class -> committed values, read flat by operand reads.
        self._banks = self.regfile.banks
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
        #: youngest in-flight writer of each register: (class, idx) -> entry.
        self._rename: dict[tuple[str, int], RuuEntry] = {}
        self._next_seq = 0
        #: the RUU's own cycle counter, advanced by :meth:`tick`.
        self.clock = 0
        #: due cycle -> ``(row, entry)`` pairs issued to complete at the end
        #: of that cycle.  A squashed entry stays filed until its due cycle
        #: and is skipped there by an identity check against the window.
        self._due: dict[int, list[tuple[int, RuuEntry]]] = {}
        #: per-cycle scratch containers, reused so the issue/dispatch hot
        #: paths allocate nothing.
        self._scratch_remaining: dict[FUType, int] = {}
        self.halted = False
        # statistics ------------------------------------------------------
        self.dispatched = 0
        self.retired = 0
        self.flushed = 0
        self.memory_stalls = 0
        #: summed over issue steps: rows ready on data but blocked on a
        #: unit, and requests that lost arbitration (the stall attribution
        #: of :class:`~repro.core.stats.SimulationResult`).
        self.resource_blocked_cycles = 0
        self.contention_cycles = 0
        self.issued_per_type: dict[FUType, int] = {t: 0 for t in FU_TYPES}
        #: busy unit-cycles per type of the occupancies that have ended.
        self._busy_cycles: dict[FUType, int] = {t: 0 for t in FU_TYPES}
        #: bumped whenever the set of WAITING entries changes (each
        #: dispatch, each issue step that grants, each flush): a policy
        #: that reads only the oldest WAITING entries recounts them only
        #: when it moves.
        self.waiting_version = 0
        #: per-type count of the WAITING entries, packed (``COUNT_ONE``).
        self.waiting_demand = 0
        #: the last issue step's report when it raised no request, with the
        #: inputs it saw; ``None`` once a step raised one.
        self._idle_report: IssueReport | None = None
        self._idle_result_bits = 0
        self._idle_live_bits = 0
        self._idle_stale_bits: int | None = None
        self._idle_need = 0
        self._idle_occupied = 0
        self._idle_scheduled = 0

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

    def ready_unscheduled(self) -> list[Instruction]:
        """Queue entries not yet granted execution, oldest first: the
        instructions the configuration manager inspects (the observers'
        view; the policies count them through :attr:`waiting_demand`)."""
        return [e.instruction for e in self._order if e.state is _WAITING]

    def _row_of_seq(self, seq: int) -> int | None:
        for entry in self._order:
            if entry.seq == seq:
                return entry.row
        return None

    # ----------------------------------------------------------- dispatch
    def dispatch(self, fetched: FetchedInstruction) -> RuuEntry:
        """Insert one decoded instruction into the window, bound to the
        in-flight producers of its sources."""
        instr = fetched.instruction
        src1, src2, dest = instr.dispatch_template
        rename = self._rename
        # an unused source is None, which is never a rename key
        producer1 = rename.get(src1)
        producer2 = rename.get(src2)
        deps = 0
        if producer1 is not None:
            deps = 1 << producer1.row
        if producer2 is not None:
            deps |= 1 << producer2.row
        row = self.wakeup.insert(instr.fu_type, deps)
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = RuuEntry(seq, fetched, row, producer1, producer2)
        self._entries[row] = entry
        self._order.append(entry)
        if dest is not None:
            rename[dest] = entry
        self.dispatched += 1
        self.waiting_version += 1
        self.waiting_demand += COUNT_ONE[instr.fu_type]
        return entry

    # --------------------------------------------------------------- issue
    def _resource_available_bits(self) -> int:
        """The fabric's cached Eq. 1 bus (for inspection: the issue step
        reads the same bus flat)."""
        return self.fabric.availability_bits()

    def issue_and_execute(self) -> IssueReport:
        """One issue step: wake-up requests, grants, functional execution."""
        idle = self._idle_report
        if self._pending_reschedule:
            idle = None
            # de-assert the scheduled bit of last cycle's collision losers
            # (the Fig. 6 reschedule input): they re-request from now on
            for row in self._pending_reschedule:
                if row in self._entries and self._entries[row].state is _WAITING:
                    self.wakeup.reschedule(row)
            self._pending_reschedule.clear()
        result_bits = self._completed_bits
        # the Eq. 1 bus, read flat: one structure-version compare, the
        # debug cross-check when armed, then the incrementally kept bits
        avail = self._avail
        if avail._structure_seen != self._rfus.structure_version:
            # repro: cold-call -- version-guarded structure rebuild: bounded
            # by reconfiguration events, not cycles
            avail._refresh_structure()
        if avail.crosscheck:
            # repro: cold-call -- opt-in divergence cross-check (debug)
            avail._crosscheck()
        live_bits = avail._bits
        stale_bits = self._stale_resource_bits
        wakeup = self.wakeup
        if (
            idle is not None
            and result_bits == self._idle_result_bits
            and live_bits == self._idle_live_bits
            and stale_bits == self._idle_stale_bits
            and wakeup._need == self._idle_need
            and wakeup._occupied == self._idle_occupied
            and wakeup._scheduled == self._idle_scheduled
        ):
            # the same inputs raise no request again, and a step without a
            # request changes nothing (the stale bus already equals the
            # live one), so the last report stands for this step too
            self.resource_blocked_cycles += idle.resource_blocked
            return idle

        report = IssueReport()
        if self.pipelined_scheduling:
            wakeup_bits = stale_bits if stale_bits is not None else live_bits
            self._stale_resource_bits = live_bits
        else:
            wakeup_bits = live_bits
        req_mask = wakeup.requests_mask(wakeup_bits, result_bits)
        requests = req_mask.bit_count()
        # rows ready on data but blocked on a unit: what steering fixes
        # (none when every unit type is available)
        if wakeup_bits != _ALL_RESOURCES:
            blocked = (
                wakeup.requests_mask(_ALL_RESOURCES, result_bits).bit_count()
                - requests
            )
            report.resource_blocked = blocked
            self.resource_blocked_cycles += blocked
        if not req_mask:
            self._remember_idle(report, result_bits, live_bits, stale_bits)
            return report
        self._idle_report = None
        # one pass over the requesting rows, oldest first (the
        # select_grants arbitration): each grant reads its operands,
        # executes, occupies its unit, is filed under its due cycle and
        # sets its scheduled bit as it is made.  The grants draw down an
        # overwrite-in-place copy of the live idle counts (all five types
        # are always keyed).
        remaining = self._scratch_remaining
        remaining.update(avail._idle_counts)
        banks = self._banks
        issue = self.fabric.issue
        clock = self.clock
        due_map = self._due
        issued_per_type = self.issued_per_type
        granted = report.granted
        issued = report.issued
        occupied = wakeup._occupied
        scheduled = wakeup._scheduled
        demand = self.waiting_demand
        grants = 0  # every granted row, memory-order denials included
        pending = req_mask
        for entry in self._order:
            if not pending:
                break
            row = entry.row
            bit = 1 << row
            if not pending & bit:
                continue
            pending ^= bit
            fu_type = entry.fu_type
            left = remaining[fu_type]
            if not left:
                continue  # lost arbitration
            remaining[fu_type] = left - 1
            grants |= bit
            instr = entry.instruction
            src1, src2, _ = instr.dispatch_template
            # each operand: forwarded from its producer while that is in
            # flight, else read from the register file (0 for no source)
            producer = entry.producer1
            if producer is None or producer.retired:
                s1 = 0 if src1 is None else banks[src1[0]][src1[1]]
            elif producer.state is _COMPLETED:
                s1 = producer.result
            else:
                raise SchedulerError(
                    f"operand read before producer seq={producer.seq} completed"
                )
            producer = entry.producer2
            if producer is None or producer.retired:
                s2 = 0 if src2 is None else banks[src2[0]][src2[1]]
            elif producer.state is _COMPLETED:
                s2 = producer.result
            else:
                raise SchedulerError(
                    f"operand read before producer seq={producer.seq} completed"
                )
            if entry.is_load:
                if not self._execute_load(entry, s1):
                    report.memory_stalls += 1
                    self.memory_stalls += 1
                    continue  # request persists next cycle
            elif entry.is_store:
                self._execute_store(entry, s1, s2)
            elif instr.is_control:
                report.resolutions.append(self._execute_control(entry, s1, s2))
            else:
                handler = instr.alu_handler
                if handler is None:
                    raise ValueError(f"alu_result does not handle {instr.mnemonic}")
                entry.result = handler(s1, s2, instr.imm)
            entry.unit = issue(fu_type, entry.seq)
            entry.state = _ISSUED
            entry.issue_cycle = clock
            demand -= COUNT_ONE[fu_type]
            due = clock + instr.latency - 1
            filed = due_map.get(due)
            if filed is None:
                due_map[due] = [(row, entry)]
            else:
                filed.append((row, entry))
            # the scheduled bit, with WakeupArray.mark_scheduled's checks
            if not occupied & bit:
                raise SchedulerError(f"row {row} is not occupied")
            if scheduled & bit:
                raise SchedulerError(f"row {row} is already scheduled")
            scheduled |= bit
            issued_per_type[fu_type] += 1
            granted.append(row)
            issued.append(entry.seq)
        wakeup._scheduled = scheduled
        if issued:
            self.waiting_version += 1
            self.waiting_demand = demand
        # requests that lost arbitration (memory-order denials are granted)
        self.contention_cycles += requests - grants.bit_count()
        if self.pipelined_scheduling:
            # select-free [9]: every requester considered itself scheduled;
            # collision losers are squashed and replay via reschedule
            loser_mask = req_mask & ~grants
            while loser_mask:
                low = loser_mask & -loser_mask
                row = low.bit_length() - 1
                loser_mask ^= low
                wakeup.mark_scheduled(row)
                self._pending_reschedule.append(row)
                self.scheduling_replays += 1
        return report

    def _remember_idle(
        self, report: IssueReport, result_bits: int, live_bits: int, stale_bits
    ) -> None:
        """Keep a request-free step's report and inputs for reuse, unless a
        debug cross-check is armed: those must see every evaluation."""
        if WakeupArray.crosscheck or self._avail.crosscheck:
            self._idle_report = None
            return
        wakeup = self.wakeup
        self._idle_report = report
        self._idle_result_bits = result_bits
        self._idle_live_bits = live_bits
        self._idle_stale_bits = stale_bits
        self._idle_need = wakeup._need
        self._idle_occupied = wakeup._occupied
        self._idle_scheduled = wakeup._scheduled

    # ------------------------------------------------------ execution kinds
    def _execute_control(
        self, entry: RuuEntry, s1: int | float, s2: int | float
    ) -> BranchResolution:
        taken, target, link = semantics.control_outcome(
            entry.instruction, entry.fetched.pc, int(s1), int(s2)
        )
        entry.result = link
        entry.actual_next = target
        mispredicted = target != entry.fetched.predicted_next
        entry.mispredicted = mispredicted
        return BranchResolution(entry, taken, target, mispredicted)

    def _execute_load(self, entry: RuuEntry, base: int | float) -> bool:
        """Execute a granted load, unless memory ordering makes it wait
        (then return ``False`` and leave the entry as it was).

        Conservative disambiguation: every older in-flight store must have
        computed its address; an exact address+size match forwards from the
        youngest such store; any partial overlap blocks the load until the
        store retires.
        """
        instr = entry.instruction
        addr = semantics.effective_address(instr, int(base))
        size = semantics.access_size(instr)
        forward: RuuEntry | None = None
        seq = entry.seq
        for store in self._order:  # oldest first, so stop at the entry itself
            if store.seq >= seq:
                break
            if not store.is_store:
                continue
            if store.mem_addr is None:
                return False  # unknown older address: wait
            lo, hi = store.mem_addr, store.mem_addr + store.mem_size
            if hi <= addr or lo >= addr + size:
                continue  # disjoint
            if store.mem_addr == addr and store.mem_size == size:
                forward = store  # youngest exact match wins (kept updating)
            else:
                return False  # partial overlap: wait for retirement
        entry.mem_addr, entry.mem_size = addr, size
        raw = forward.store_data if forward is not None else self.dmem.load(addr, size)
        entry.result = semantics.load_value(instr, raw)
        return True

    def _execute_store(
        self, entry: RuuEntry, base: int | float, value: int | float
    ) -> None:
        instr = entry.instruction
        entry.mem_addr = semantics.effective_address(instr, int(base))
        entry.mem_size = semantics.access_size(instr)
        entry.store_data = semantics.store_bytes(instr, value)

    # ---------------------------------------------------------------- tick
    def tick(self) -> None:
        """End the cycle: complete the entries due now, then advance the clock.

        A completing entry asserts its result-available line (its row's bit
        in the incrementally-maintained ``_completed_bits`` bus), releases
        its unit through :meth:`Fabric.release` and adds the cycles it held
        it to the busy total.  An entry a flush squashed is no longer in
        its row and is skipped."""
        clock = self.clock
        due = self._due.pop(clock, None)
        if due is not None:
            entries = self._entries
            bits = self._completed_bits
            busy = self._busy_cycles
            release = self.fabric.release
            for row, entry in due:
                if entries.get(row) is entry:
                    entry.state = _COMPLETED
                    bits |= 1 << row
                    release(entry.unit)
                    busy[entry.fu_type] += clock - entry.issue_cycle + 1
            self._completed_bits = bits
        self.clock = clock + 1

    def busy_unit_cycles(self) -> dict[FUType, int]:
        """Unit-cycles per type spent executing, through the last tick.

        Each cycle a unit is busy at the end of (before its completion is
        ticked) counts once; the units still in flight count up to now.
        """
        busy = dict(self._busy_cycles)
        for e in self._order:
            if e.state is _ISSUED:
                busy[e.fu_type] += self.clock - e.issue_cycle
        return busy

    # -------------------------------------------------------------- retire
    def retire(self) -> list[RuuEntry]:
        """In-order retirement of up to ``retire_width`` completed entries."""
        retired: list[RuuEntry] = []
        order = self._order
        while len(retired) < self.retire_width and order:
            head = order[0]
            if head.state is not _COMPLETED:
                break
            row = head.row
            dest = head.instruction.dispatch_template[2]
            if head.is_store:
                self.dmem.store(head.mem_addr, head.store_data)
            elif dest is not None and head.result is not None:
                self.regfile.write(dest[0], dest[1], head.result)
            # consumers still in flight read the register file from now
            # on; dropping the head's own links keeps a long run from
            # holding every retired entry alive through its dependents
            head.retired = True
            head.producer1 = head.producer2 = None
            self.wakeup.remove(row)
            self._completed_bits &= ~(1 << row)
            del self._entries[row]
            order.pop(0)
            if dest is not None and self._rename.get(dest) is head:
                del self._rename[dest]
            retired.append(head)
            self.retired += 1
            if head.instruction.is_halt:
                self.halted = True
                break
        return retired

    # --------------------------------------------------------------- flush
    def flush_younger(self, seq: int) -> int:
        """Squash every entry younger than ``seq`` (mispredict recovery).

        Releases any functional units the squashed entries hold and rebuilds
        the rename map from the survivors.  Every survivor is older than the
        squashed entries, so no survivor is bound to a squashed producer.
        Returns the number squashed.
        """
        victims = [
            (row, e) for row, e in self._entries.items() if e.seq > seq
        ]
        for row, e in victims:
            if e.state is _WAITING:
                self.waiting_demand -= COUNT_ONE[e.fu_type]
            elif e.state is _ISSUED:
                self.fabric.release(e.unit)
                # squashed during this cycle's issue step: it was busy at
                # the end of every cycle from its issue up to the last one
                self._busy_cycles[e.fu_type] += self.clock - e.issue_cycle
            self.wakeup.remove(row)
            self._completed_bits &= ~(1 << row)
            del self._entries[row]
        self._order = [e for e in self._order if e.seq <= seq]
        self._rename = {}
        for e in self._order:
            dest = e.instruction.dispatch_template[2]
            if dest is not None:
                self._rename[dest] = e
        self.flushed += len(victims)
        self.waiting_version += 1
        return len(victims)
