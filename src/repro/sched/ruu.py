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
* **completion by event** — issuing an instruction of latency *L* files
  it in a due-cycle map under cycle ``clock + L - 1``; :meth:`tick`
  completes that cycle's entries and releases their units, so no per-unit
  or per-entry count-down is swept every cycle;
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

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class BranchResolution:
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
        #: bumped whenever the set of WAITING entries changes (a dispatch, a
        #: grant, a flush): a policy that reads only the oldest WAITING
        #: entries recounts them only when it moves.
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

    # ------------------------------------------------------------ operands
    def _operand(self, producer: RuuEntry | None, src) -> int | float:
        """One source operand: forwarded from its producer while that is in
        flight, else read from the register file (0 for no source)."""
        if producer is not None and not producer.retired:
            if producer.state is not _COMPLETED:
                raise SchedulerError(
                    f"operand read before producer seq={producer.seq} completed"
                )
            return producer.result
        if src is None:
            return 0
        return self._banks[src[0]][src[1]]

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
        base = self._operand(entry.producer1, entry.instruction.dispatch_template[0])
        addr = semantics.effective_address(entry.instruction, int(base))
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
        # oldest-first grants (the select_grants arbitration) over the
        # requesting rows only: their set bits, ordered by sequence number.
        # Overwrite-in-place copy of the live counts (all five types are
        # always keyed), so the grant loop can decrement freely.
        granted_rows: list[int] = []
        remaining = self._scratch_remaining
        remaining.update(avail._idle_counts)
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
        # requests that lost arbitration (memory-order denials are granted)
        self.contention_cycles += requests - len(granted_rows)
        if self.pipelined_scheduling:
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
            entry.state = _ISSUED
            self.waiting_version += 1
            self.waiting_demand -= COUNT_ONE[entry.fu_type]
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
    def _execute_alu(self, entry: RuuEntry) -> None:
        instr = entry.instruction
        src1, src2, _ = instr.dispatch_template
        s1 = self._operand(entry.producer1, src1)
        s2 = self._operand(entry.producer2, src2)
        entry.result = semantics.alu_result(instr, s1, s2)

    def _execute_control(self, entry: RuuEntry) -> BranchResolution:
        instr = entry.instruction
        src1, src2, _ = instr.dispatch_template
        s1 = int(self._operand(entry.producer1, src1))
        s2 = int(self._operand(entry.producer2, src2))
        taken, target, link = semantics.control_outcome(
            instr, entry.fetched.pc, s1, s2
        )
        entry.result = link
        entry.actual_next = target
        entry.mispredicted = target != entry.fetched.predicted_next
        return BranchResolution(
            entry=entry, taken=taken, target=target, mispredicted=entry.mispredicted
        )

    def _execute_load(self, entry: RuuEntry, forward: RuuEntry | None) -> None:
        src1 = entry.instruction.dispatch_template[0]
        base = int(self._operand(entry.producer1, src1))
        addr = semantics.effective_address(entry.instruction, base)
        size = semantics.access_size(entry.instruction)
        entry.mem_addr, entry.mem_size = addr, size
        raw = forward.store_data if forward is not None else self.dmem.load(addr, size)
        entry.result = semantics.load_value(entry.instruction, raw)

    def _execute_store(self, entry: RuuEntry) -> None:
        src1, src2, _ = entry.instruction.dispatch_template
        base = int(self._operand(entry.producer1, src1))
        value = self._operand(entry.producer2, src2)
        entry.mem_addr = semantics.effective_address(entry.instruction, base)
        entry.mem_size = semantics.access_size(entry.instruction)
        entry.store_data = semantics.store_bytes(entry.instruction, value)

    # ---------------------------------------------------------------- tick
    def tick(self) -> None:
        """End the cycle: complete the entries due now, then advance the clock.

        A completing entry asserts its result-available line (its row's bit
        in the incrementally-maintained ``_completed_bits`` bus), releases
        its unit (the :meth:`FunctionalUnit.release` transition, inline)
        and adds the cycles it held it to the busy total.  An entry a flush
        squashed is no longer in its row and is skipped."""
        clock = self.clock
        due = self._due.pop(clock, None)
        if due is not None:
            entries = self._entries
            bits = self._completed_bits
            busy = self._busy_cycles
            for row, entry in due:
                if entries.get(row) is entry:
                    entry.state = _COMPLETED
                    bits |= 1 << row
                    unit = entry.unit
                    if unit.busy:
                        unit.busy = False
                        unit.occupant = None
                        for listener in unit.listeners:
                            listener.unit_state_changed(unit, True)
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
            self._commit(head)
            # consumers still in flight read the register file from now
            # on; dropping the head's own links keeps a long run from
            # holding every retired entry alive through its dependents
            head.retired = True
            head.producer1 = head.producer2 = None
            self.wakeup.remove(row)
            self._completed_bits &= ~(1 << row)
            del self._entries[row]
            order.pop(0)
            dest = head.instruction.dispatch_template[2]
            if dest is not None and self._rename.get(dest) is head:
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
        dest = entry.instruction.dispatch_template[2]
        if dest is not None and entry.result is not None:
            self.regfile.write(dest[0], dest[1], entry.result)

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
                e.unit.release()
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
