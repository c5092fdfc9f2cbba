"""The register update unit (RUU).

Per the paper, the RUU "collects decoded instructions from the instruction
queue and dispatches them to the various functional units", resolves all
register dependences through its dependency buffer, performs out-of-order
execution with in-order completion, and forwards operands.  This
implementation adds the substrate details a working processor needs:

* **one call per stage** — dispatch, issue and retire are each one
  call per cycle.  :meth:`dispatch_decoded` moves the decode buffer's
  oldest instructions, up to the decode width and the free rows, into
  the window and writes their wake-up rows into the array's packed
  state; :meth:`retire` commits, frees each row and its result column
  and counts :attr:`retired_per_type` itself;
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
* **one evaluation per issue step** — the wake-up logic is evaluated
  once, with every unit type available, for the rows ready on data.  A
  ready row requests when its type's Eq. 1 line is up and is counted
  resource-blocked when it is down, so one evaluation gives both.  The
  Eq. 1 bus and the idle counts are read flat from the
  :class:`~repro.fabric.fabric.Fabric`, which keeps them current as
  units are issued, released, loaded and evicted.  With
  the cross-check armed (``REPRO_AVAILABILITY_CROSSCHECK``), the derived
  requests are compared with a direct evaluation at the Eq. 1 bus, and
  both kernel evaluations with the wake-up array's row-loop reference;
* **one pass per grant** — the issue step walks the ready rows oldest
  first, and each grant reads its operands, executes (an ALU instruction
  through the ``alu_handler`` bound at decode), occupies its unit through
  :meth:`Fabric.issue`, is filed and sets its scheduled bit in the same
  pass.  The step returns ``(issued, resolutions)``, the two things the
  processor reads;
* **completion by event** — issuing an instruction of latency *L* files
  its entry in a due-cycle map under cycle ``clock + L - 1``; :meth:`tick`
  completes that cycle's entries and frees their units through
  :meth:`Fabric.release`, so no per-unit or per-entry count-down is swept
  every cycle;
* **busy unit-cycles by event** — each occupancy adds its length to a
  per-type total when the unit is released (a completion adds
  ``clock - issue_cycle + 1``, a squash ``clock - issue_cycle``), and
  :meth:`busy_unit_cycles` adds the units still in flight;
* **idle-issue reuse** — an issue step that raised no request leaves no
  trace but its resource-blocked count, so while its inputs (the
  result-available and availability buses, the stale bus of pipelined
  scheduling and the wake-up array's packed state) stay equal,
  :meth:`issue_and_execute` adds that count again and returns an empty
  outcome instead of re-evaluating the wake-up logic;
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

from collections.abc import Sequence
from typing import NamedTuple

from repro.errors import SchedulerError
from repro.fabric.fabric import Fabric
from repro.frontend.decode import DecodeStage
from repro.frontend.fetch import FetchedInstruction
from repro.frontend.memory import DataMemory
from repro.isa import semantics
from repro.isa.futypes import COUNT_ONE, FU_BIT, FU_TYPES, NUM_FU_TYPES, FUType
from repro.isa.instruction import Instruction
from repro.sched.entry import EntryState, RuuEntry
from repro.sched.regfile import RegisterFile
from repro.sched.wakeup import WakeupArray

__all__ = ["BranchResolution", "RegisterUpdateUnit"]

#: the resource-available bus with every unit type available.
_ALL_RESOURCES = (1 << len(FU_TYPES)) - 1

#: the entry states as module constants: loading an enum member through
#: its class is a slow attribute load, and these are tested every cycle.
_WAITING = EntryState.WAITING
_ISSUED = EntryState.ISSUED
_COMPLETED = EntryState.COMPLETED

#: what an issue step that raised no request returns: nothing issued,
#: nothing resolved.
_NOTHING: tuple[tuple[()], tuple[()]] = ((), ())


class BranchResolution(NamedTuple):
    """A control instruction resolved this cycle."""

    entry: RuuEntry
    taken: bool
    target: int
    mispredicted: bool


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
        #: due cycle -> the entries issued to complete at the end of that
        #: cycle.  A squashed entry stays filed until its due cycle and is
        #: skipped there by an identity check against its row.
        self._due: dict[int, list[RuuEntry]] = {}
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
        self.retired_per_type: dict[FUType, int] = {t: 0 for t in FU_TYPES}
        #: busy unit-cycles per type of the occupancies that have ended.
        self._busy_cycles: dict[FUType, int] = {t: 0 for t in FU_TYPES}
        #: per-type count of the WAITING entries, packed (``COUNT_ONE``).
        self.waiting_demand = 0
        #: the resource-blocked count of the last issue step when it raised
        #: no request, with the inputs it saw; ``None`` once a step raised
        #: one.
        self._idle_blocked: int | None = None
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
    def empty(self) -> bool:
        return not self._entries

    def ready_unscheduled(self) -> list[Instruction]:
        """Queue entries not yet granted execution, oldest first: the
        instructions the configuration manager inspects (the observers'
        view; the policies count them through :attr:`waiting_demand`)."""
        return [e.instruction for e in self._order if e.state is _WAITING]

    # ----------------------------------------------------------- dispatch
    def dispatch_decoded(self, decode: DecodeStage) -> int:
        """The dispatch stage: move the decode buffer's oldest instructions
        into free wake-up rows, as many as the decode width, the free rows
        and the buffer allow.  Returns how many; the dispatched entries
        are the youngest that many in flight (the tail of ``_order``).

        Each instruction is bound to the in-flight producers of its
        sources, and its row (its unit type's column and its producers'
        result columns) is written straight into the wake-up array's
        packed state, with :meth:`WakeupArray.insert`'s invalid-row check.
        """
        buffer = decode._buffer
        wakeup = self.wakeup
        occupied = wakeup._occupied
        n = min(decode.width, wakeup.n_entries - occupied.bit_count(), len(buffer))
        if n <= 0:
            return 0
        decode.decoded += n
        popleft = buffer.popleft
        all_rows = wakeup._all_rows
        width = wakeup._width
        need = wakeup._need
        rename = self._rename
        entries = self._entries
        order = self._order
        demand = self.waiting_demand
        seq = self._next_seq
        for _ in range(n):
            fetched = popleft()
            instr = fetched.instruction
            src1, src2, dest = instr.dispatch_template
            # an unused source is None, which is never a rename key
            producer1 = rename.get(src1)
            producer2 = rename.get(src2)
            deps = 0
            if producer1 is not None:
                deps = 1 << producer1.row
            if producer2 is not None:
                deps |= 1 << producer2.row
            stray = deps & ~occupied
            if stray:
                row = (stray & -stray).bit_length() - 1
                raise SchedulerError(f"dependency on invalid row {row}")
            free = ~occupied & all_rows
            row = (free & -free).bit_length() - 1  # lowest free row
            fu_type = instr.fu_type
            need |= (FU_BIT[fu_type] | (deps << NUM_FU_TYPES)) << (row * width)
            occupied |= 1 << row
            entry = RuuEntry(seq, fetched, row, producer1, producer2)
            seq += 1
            entries[row] = entry
            order.append(entry)
            if dest is not None:
                rename[dest] = entry
            demand += COUNT_ONE[fu_type]
        wakeup._need = need
        wakeup._occupied = occupied
        self._next_seq = seq
        self.dispatched += n
        self.waiting_demand = demand
        return n

    def dispatch(self, fetched: FetchedInstruction) -> RuuEntry:
        """Dispatch one instruction through :meth:`dispatch_decoded` (the
        tests and the figure builders place instructions one at a time).
        Raises :class:`SchedulerError` when the window is full."""
        if self.wakeup.full:
            raise SchedulerError("wake-up array is full")
        stage = DecodeStage(width=1, capacity=1)
        stage.push([fetched])
        self.dispatch_decoded(stage)
        return self._order[-1]

    # --------------------------------------------------------------- issue
    def _resource_available_bits(self) -> int:
        """The fabric's Eq. 1 bus (for inspection: the issue step reads
        the same bus flat)."""
        return self.fabric.availability_bits()

    def issue_and_execute(self) -> tuple[Sequence[int], Sequence[BranchResolution]]:
        """One issue step: wake-up requests, grants, functional execution.

        Returns ``(issued, resolutions)``: the sequence numbers issued this
        step, oldest first, and the control instructions resolved.
        """
        if self._pending_reschedule:
            self._idle_blocked = None
            # de-assert the scheduled bit of last cycle's collision losers
            # (the Fig. 6 reschedule input): they re-request from now on
            for row in self._pending_reschedule:
                if row in self._entries and self._entries[row].state is _WAITING:
                    self.wakeup.reschedule(row)
            self._pending_reschedule.clear()
        result_bits = self._completed_bits
        # the Eq. 1 bus, read flat from the fabric that keeps it (after
        # the debug cross-check when armed)
        fabric = self.fabric
        crosscheck = fabric.crosscheck
        if crosscheck:
            fabric._crosscheck()
        live_bits = fabric._bits
        stale_bits = self._stale_resource_bits
        wakeup = self.wakeup
        idle_blocked = self._idle_blocked
        if (
            idle_blocked is not None
            and result_bits == self._idle_result_bits
            and live_bits == self._idle_live_bits
            and stale_bits == self._idle_stale_bits
            and wakeup._need == self._idle_need
            and wakeup._occupied == self._idle_occupied
            and wakeup._scheduled == self._idle_scheduled
        ):
            # the same inputs raise no request again, and a step without a
            # request changes nothing (the stale bus already equals the
            # live one), so the last step's outcome stands for this one
            self.resource_blocked_cycles += idle_blocked
            return _NOTHING

        if self.pipelined_scheduling:
            wakeup_bits = stale_bits if stale_bits is not None else live_bits
            self._stale_resource_bits = live_bits
        else:
            wakeup_bits = live_bits
        # one evaluation of the wake-up logic, with every unit type
        # available: the rows ready on data.  A ready row requests when its
        # type's Eq. 1 line is up, and is resource-blocked (what steering
        # fixes) when it is down.
        ready = wakeup.requests_mask(_ALL_RESOURCES, result_bits)
        if crosscheck:
            direct = wakeup.requests_mask(wakeup_bits, result_bits)
            # both evaluations of the packed kernel against its row loop
            for bus, mask in ((_ALL_RESOURCES, ready), (wakeup_bits, direct)):
                ref = 0
                for row in wakeup.requests_reference(bus, result_bits):
                    ref |= 1 << row
                if ref != mask:
                    raise SchedulerError(
                        f"bit-packed wake-up kernel diverged: {mask:#x} != {ref:#x}"
                    )
        unavailable = _ALL_RESOURCES ^ wakeup_bits
        req_mask = 0
        grants = 0  # every granted row, memory-order denials included
        issued: list[int] = []
        resolutions: list[BranchResolution] = []
        if ready:
            # one pass over the ready rows, oldest first (the select_grants
            # arbitration): each grant reads its operands, executes,
            # occupies its unit, is filed under its due cycle and sets its
            # scheduled bit as it is made.  The grants draw down an
            # overwrite-in-place copy of the live idle counts (all five
            # types are always keyed).
            remaining = self._scratch_remaining
            remaining.update(fabric._idle_counts)
            banks = self._banks
            issue = fabric.issue
            clock = self.clock
            due_map = self._due
            issued_per_type = self.issued_per_type
            occupied = wakeup._occupied
            scheduled = wakeup._scheduled
            demand = self.waiting_demand
            pending = ready
            for entry in self._order:
                if not pending:
                    break
                row = entry.row
                bit = 1 << row
                if not pending & bit:
                    continue
                pending ^= bit
                fu_type = entry.fu_type
                if unavailable and unavailable & FU_BIT[fu_type]:
                    continue  # no unit of its type available: no request
                req_mask |= bit
                left = remaining[fu_type]
                if not left:
                    continue  # lost arbitration
                remaining[fu_type] = left - 1
                grants |= bit
                instr = entry.instruction
                src1, src2, _ = instr.dispatch_template
                # each operand: forwarded from its producer while that is
                # in flight, else read from the register file (0 for no
                # source)
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
                        self.memory_stalls += 1
                        continue  # request persists next cycle
                elif entry.is_store:
                    self._execute_store(entry, s1, s2)
                elif instr.is_control:
                    resolutions.append(self._execute_control(entry, s1, s2))
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
                    due_map[due] = [entry]
                else:
                    filed.append(entry)
                # the scheduled bit, with WakeupArray.mark_scheduled's checks
                if not occupied & bit:
                    raise SchedulerError(f"row {row} is not occupied")
                if scheduled & bit:
                    raise SchedulerError(f"row {row} is already scheduled")
                scheduled |= bit
                issued_per_type[fu_type] += 1
                issued.append(entry.seq)
            wakeup._scheduled = scheduled
            if issued:
                self.waiting_demand = demand
        if crosscheck and req_mask != direct:
            raise SchedulerError(
                f"derived request mask diverged: {req_mask:#x} != {direct:#x}"
            )
        requests = req_mask.bit_count()
        blocked = 0
        if unavailable:
            blocked = ready.bit_count() - requests
            self.resource_blocked_cycles += blocked
        if not req_mask:
            # keep the request-free step's outcome and inputs for reuse,
            # unless the debug cross-check is armed: it must see every
            # evaluation
            if crosscheck:
                self._idle_blocked = None
            else:
                self._idle_blocked = blocked
                self._idle_result_bits = result_bits
                self._idle_live_bits = live_bits
                self._idle_stale_bits = stale_bits
                self._idle_need = wakeup._need
                self._idle_occupied = wakeup._occupied
                self._idle_scheduled = wakeup._scheduled
            return _NOTHING
        self._idle_blocked = None
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
        return issued, resolutions

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
            for entry in due:
                row = entry.row
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
        """In-order retirement of up to ``retire_width`` completed entries.

        Each retiring entry commits its store to memory or its result to
        the register file (integer ``x0`` stays zero), frees its wake-up
        row with its result column (the retire rule of
        :meth:`WakeupArray.remove`) and is counted in
        :attr:`retired_per_type`."""
        retired: list[RuuEntry] = []
        order = self._order
        width = self.retire_width
        wakeup = self.wakeup
        occupied = wakeup._occupied
        scheduled = wakeup._scheduled
        need = wakeup._need
        remove_masks = wakeup._remove_masks
        completed_bits = self._completed_bits
        entries = self._entries
        rename = self._rename
        banks = self._banks
        retired_per_type = self.retired_per_type
        while order and len(retired) < width:
            head = order[0]
            if head.state is not _COMPLETED:
                break
            row = head.row
            dest = head.instruction.dispatch_template[2]
            if head.is_store:
                self.dmem.store(head.mem_addr, head.store_data)
            elif dest is not None and head.result is not None:
                reg_class, index = dest
                if reg_class == "int":
                    if index:  # x0 is hard-wired to zero
                        banks["int"][index] = int(head.result) & 0xFFFFFFFF
                elif reg_class == "fp":
                    banks["fp"][index] = float(head.result)
                else:
                    raise SchedulerError(f"unknown register class {reg_class!r}")
            # consumers still in flight read the register file from now
            # on; dropping the head's own links keeps a long run from
            # holding every retired entry alive through its dependents
            head.retired = True
            head.producer1 = head.producer2 = None
            bit = 1 << row
            if not occupied & bit:
                raise SchedulerError(f"row {row} is not occupied")
            occupied ^= bit
            scheduled &= ~bit
            need &= remove_masks[row]
            completed_bits &= ~bit
            del entries[row]
            order.pop(0)
            if dest is not None and rename.get(dest) is head:
                del rename[dest]
            retired.append(head)
            retired_per_type[head.fu_type] += 1
            if head.instruction.is_halt:
                self.halted = True
                break
        wakeup._occupied = occupied
        wakeup._scheduled = scheduled
        wakeup._need = need
        self._completed_bits = completed_bits
        self.retired += len(retired)
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
        return len(victims)
