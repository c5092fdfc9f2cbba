"""Lock-step vectorized multi-simulation stepping (the lane engine).

Every evaluation sweep — policy catalogue x workload grid, CEM basis-search
generations, parameter sweeps — runs N independent simulations of the
*same program*.  The scalar engine interprets N separate cycle loops; this
module runs them as N *lanes* advanced in lock-step, so the per-cycle
bookkeeping of the whole batch collapses into shared, batched structures:

* **wake-up evaluation** — one call into the packed ``(lanes, rows)``
  kernel (:mod:`repro.sched.wakeup_vec`) computes every lane's request and
  resource-blocked masks for the cycle;
* **execution count-downs** — one batched timer array replaces the scalar
  engine's per-cycle sweeps over every functional unit and window entry;
  the batch pays O(completions) per cycle, not O(lanes x units), and a
  lane's units are released by event exactly when their timers expire;
* **steering selection** — lanes with identical selection-unit parameters
  share one :class:`~repro.steering.selection.ConfigurationSelectionUnit`
  (and its memo); each lane re-evaluates the selection only when its
  waiting window or configured counts actually changed, so a 64-lane sweep
  answers most selection queries from one warm memo instead of 64 cold
  ones;
* **dispatch decode** — per-PC operand/destination templates are shared
  across every lane of the batch (all lanes run the same program).

Each lane still owns a **real** :class:`~repro.core.processor.Processor`
with all of its event-driven components — fabric, loader, policy,
predictor, BTB, trace cache, decode buffer, fetch unit, register file,
data memory.  Event-driven state is cheapest exactly where the scalar
engine keeps it, and reusing the construction path makes lane results
identical to the scalar engine *by construction*: ``Processor.result()``
builds the final :class:`~repro.core.stats.SimulationResult` in both
engines.  Each lane's wake-up array is swapped for :class:`_MirrorWakeup`,
which mirrors need-field changes into the shared bank, so retirement and
flush recovery keep running the proven scalar code.

Lanes that halt or exhaust their cycle budget are masked out of the batch
and simply stop stepping — ragged finish times cost nothing.

Equivalence: the scalar engine stays the reference.  The opt-in
``REPRO_VECTOR_CROSSCHECK`` debug toggle (same pattern as the SWAR and
availability crosschecks) steps a shadow scalar :class:`Processor` next to
every lane and compares the key pipeline state after every cycle; the
equivalence test suite additionally pins bit-identical
``SimulationResult.to_dict()`` output across the policy catalogue.
"""

from __future__ import annotations

from typing import Any

from repro.core.baselines import (
    demand_processor,
    fixed_superscalar,
    random_processor,
    static_processor,
    steering_processor,
)
from repro.core.params import ProcessorParams
from repro.core.policies import OracleSteering, PaperSteering
from repro.core.processor import Processor
from repro.core.reference import run_reference
from repro.errors import SimulationError
from repro.isa.futypes import FU_TYPES
from repro.isa.opcodes import Opcode, OperandClass
from repro.sched.entry import EntryState, RuuEntry, SourceBinding
from repro.sched.wakeup import WakeupArray
from repro.sched.wakeup_vec import make_countdown_bank, make_lane_bank
from repro.steering.selection import ConfigurationSelectionUnit
from repro.utils.env import env_flag

__all__ = [
    "VECTOR_FACTORIES",
    "vector_eligible",
    "vector_dispatch_enabled",
    "crosscheck_enabled",
    "run_vector_batch",
]

#: job factories the lane engine can replicate exactly.  The excluded ones
#: are excluded deliberately: steering-traced / steering-telemetry attach
#: per-cycle observers the lane engine does not drive, and reference is not
#: a cycle-level simulation at all.
VECTOR_FACTORIES = frozenset(
    {
        "ffu-only",
        "steering",
        "steering-basis",
        "static",
        "random",
        "oracle",
        "demand",
    }
)

_DEFAULT_PARAMS = ProcessorParams()

_WAITING = EntryState.WAITING
_ISSUED = EntryState.ISSUED
_COMPLETED = EntryState.COMPLETED

#: number of functional-unit types = width of the resource field.
_NUM_TYPES = len(FU_TYPES)
#: ``(bit_index, type)`` pairs — FU_TYPES is in bit-index order, so plain
#: lists indexed by ``fu_type.bit_index`` line up with ``counts_tuple()``.
_FU_INDEXED = tuple(enumerate(FU_TYPES))
#: type -> bit index as one dict hit (the property resolves a descriptor
#: plus a table lookup per call; the hot loops below call it constantly).
_BI = {t: t.bit_index for t in FU_TYPES}

# lane policy kinds: how the steering phase of a lane's cycle is driven.
_KIND_NONE = 0  # ffu-only: the policy cycle is a no-op
_KIND_PAPER = 1  # PaperSteering: lean manager cycle with the shared memo
_KIND_STATIC = 2  # StaticConfiguration: loader stepping until satisfied
_KIND_READY = 3  # policy.cycle needs the ready-unscheduled queue (demand)
_KIND_PLAIN = 4  # policy.cycle ignores the queue (random, oracle)


def vector_dispatch_enabled() -> bool:
    """Global kill switch: ``REPRO_VECTOR_DISABLE`` forces the scalar path."""
    return not env_flag("REPRO_VECTOR_DISABLE")


def crosscheck_enabled() -> bool:
    """Opt-in per-cycle shadow-scalar crosscheck (``REPRO_VECTOR_CROSSCHECK``)."""
    return env_flag("REPRO_VECTOR_CROSSCHECK")


def vector_eligible(factory: str, params: ProcessorParams | None) -> bool:
    """Can a job with this factory and these parameters run as a lane?

    Only the policy recipes in :data:`VECTOR_FACTORIES` are replicated,
    and the pipelined select-free scheduling mode is excluded (its stale
    availability bus is inherently per-lane sequential state the batched
    kernel does not model).
    """
    if factory not in VECTOR_FACTORIES:
        return False
    params = params if params is not None else _DEFAULT_PARAMS
    return not params.pipelined_scheduling


# --------------------------------------------------------------- lane setup
class _MirrorWakeup(WakeupArray):
    """A per-lane wake-up array that mirrors its need fields into the bank.

    Retirement and flush recovery keep calling the scalar array's proven
    remove logic; the override additionally clears the packed field in the
    shared ``(lanes, rows)`` bank, disarms the row's batched count-down
    timer, and maintains the lane's busy ledger and steering-signature
    dirtiness.  Occupancy and scheduled bits are *not* mirrored — the
    kernel's masks are combined with them lane-locally.
    """

    def __init__(self, n_entries: int, bank, lane_index: int) -> None:
        super().__init__(n_entries)
        self._bank = bank
        self._lane_index = lane_index
        #: back-reference to the driving lane, wired after _Lane creation.
        self._lane: _Lane | None = None

    def insert(self, fu_type, dep_rows):
        # the engine dispatches through _lean_dispatch, which writes the
        # field itself; this override keeps any out-of-band insert coherent
        row = super().insert(fu_type, dep_rows)
        dep_bits = 0
        for d in dep_rows:
            dep_bits |= 1 << d
        self._bank.set_row(
            self._lane_index,
            row,
            (1 << fu_type.bit_index) | (dep_bits << _NUM_TYPES),
        )
        return row

    def remove(self, index):
        lane = self._lane
        if lane is not None:
            entry = lane.ruu._entries.get(index)
            if entry is not None and entry.state is _WAITING:
                # a waiting entry left the window (flush): the steering
                # window signature changed
                lane.sig_dirty = True
            unit = lane.row_unit[index]
            if unit is not None:
                # squashed while executing: disarm the timer and return
                # the unit to the busy ledger (the flush path itself
                # releases the unit object, exactly as the scalar engine)
                lane.row_unit[index] = None
                lane.busy_by_type[_BI[unit.fu_type]] -= 1
                lane.ticker.cancel(self._lane_index, index)
        super().remove(index)
        self._bank.clear_row(self._lane_index, index)


class _Lane:
    """One simulation lane: a real processor plus lock-step driver state."""

    __slots__ = (
        "index",
        "proc",
        "ruu",
        "wakeup",
        "fabric",
        "rfus",
        "decode",
        "fetch",
        "predictor",
        "btb",
        "policy",
        "kind",
        "manager",
        "loader",
        "select_unit",
        "queue_size",
        "fetch_width",
        "max_cycles",
        "scratch_rem",
        "static_done",
        "shadow",
        "done",
        "bank",
        "ticker",
        "templates",
        "row_unit",
        "busy_by_type",
        "sig_dirty",
        "last_counts",
        "last_result",
        "fast_memo",
        "util_conf",
        "util_busy",
    )

    def __init__(self, index: int, proc: Processor, max_cycles: int) -> None:
        self.index = index
        self.proc = proc
        self.ruu = proc.ruu
        self.wakeup = proc.ruu.wakeup
        self.fabric = proc.fabric
        self.rfus = proc.fabric.rfus
        self.decode = proc.decode
        self.fetch = proc.fetch
        self.predictor = proc.predictor
        self.btb = proc.btb
        self.policy = proc.policy
        self.kind = _KIND_PLAIN
        self.manager = None
        self.loader = None
        self.select_unit: ConfigurationSelectionUnit | None = None
        self.queue_size = 0
        self.fetch_width = proc.params.fetch_width
        self.max_cycles = max_cycles
        self.scratch_rem = [0] * _NUM_TYPES
        self.static_done = False
        self.shadow: Processor | None = None
        self.done = False
        self.bank = None
        self.ticker = None
        self.templates: dict | None = None
        #: unit executing the instruction in each wake-up row (busy ledger).
        self.row_unit: list = [None] * proc.params.window_size
        self.busy_by_type = [0] * _NUM_TYPES
        #: True when the waiting-window signature may have changed since
        #: the last steering selection.
        self.sig_dirty = True
        self.last_counts: tuple | None = None
        self.last_result = None
        #: batch-shared (packed signature, counts) -> SelectResult cache.
        self.fast_memo: dict | None = None
        #: per-type utilisation accumulators, flushed into the processor's
        #: stat dicts when the lane finishes (plain list adds per cycle
        #: instead of ten enum-keyed dict updates).
        self.util_conf = [0] * _NUM_TYPES
        self.util_busy = [0] * _NUM_TYPES


def _build_processor(
    factory: str,
    program,
    params: ProcessorParams | None,
    kwargs: dict[str, Any],
    shared: dict,
) -> Processor:
    """Replicate a batch factory's processor construction without running it.

    Mirrors the recipes in :mod:`repro.evaluation.batch` exactly — same
    defaults, same ignored kwargs — so a lane's components are the ones the
    scalar engine would have built.  The oracle's profiling reference run
    is shared across the batch's lanes (it is a pure function of the
    program, and every lane of a batch shares the program).
    """
    if factory == "ffu-only":
        return fixed_superscalar(program, params)
    if factory == "steering":
        return steering_processor(
            program, params, use_exact_metric=kwargs.get("use_exact_metric", False)
        )
    if factory == "steering-basis":
        p = params if params is not None else ProcessorParams()
        policy = PaperSteering(
            configs=tuple(kwargs["configs"]), queue_size=p.window_size
        )
        return Processor(program, params=p, policy=policy)
    if factory == "static":
        return static_processor(program, kwargs["config"], params)
    if factory == "random":
        return random_processor(
            program,
            params,
            period=kwargs.get("period", 200),
            seed=kwargs.get("seed", 0),
        )
    if factory == "oracle":
        reference = shared.get("oracle-reference")
        if reference is None:
            reference = run_reference(program, max_instructions=1_000_000)
            shared["oracle-reference"] = reference
        policy = OracleSteering(
            reference.trace, lookahead=kwargs.get("lookahead", 64)
        )
        return Processor(program, params=params, policy=policy)
    if factory == "demand":
        return demand_processor(
            program,
            params,
            smoothing=kwargs.get("smoothing", 0.1),
            improvement_margin=kwargs.get("improvement_margin", 0.15),
        )
    raise SimulationError(f"factory {factory!r} has no vector lane recipe")


def _config_fingerprint(configs) -> tuple:
    return tuple(
        (c.name, tuple(sorted((t.name, n) for t, n in c.counts.items())))
        for c in configs
    )


def _classify(lane: _Lane, shared_units: dict) -> None:
    """Pick the lane's steering-phase driver and wire shared structures."""
    policy = lane.policy
    name = type(policy).__name__
    if name == "NoSteering":
        lane.kind = _KIND_NONE
    elif isinstance(policy, PaperSteering):
        lane.kind = _KIND_PAPER
        lane.manager = policy.manager
        lane.loader = policy.manager.loader
        lane.queue_size = policy.queue_size
        key = (
            _config_fingerprint(policy.configs),
            policy.queue_size,
            policy.use_exact_metric,
        )
        # the first lane of each selection-unit signature donates its unit;
        # select() is a pure function of (window types, counts), so sharing
        # it — and its memos — across lanes cannot change any lane's result
        unit, fast = shared_units.setdefault(
            key, (policy.manager.selection_unit, {})
        )
        lane.select_unit = unit
        lane.fast_memo = fast
    elif name == "StaticConfiguration":
        lane.kind = _KIND_STATIC
    elif name == "DemandSteering":
        lane.kind = _KIND_READY
    else:  # random, oracle: cycle() ignores the ready queue
        lane.kind = _KIND_PLAIN


# ------------------------------------------------------------ lean dispatch
def _dispatch_template(instr) -> tuple:
    """Per-PC dispatch invariants, shared across every lane of the batch.

    Mirrors the operand-class filtering of
    :meth:`repro.sched.ruu.RegisterUpdateUnit.dispatch`: a source is
    ``None`` when unused or hard-wired x0, else the ``(reg_class, index)``
    rename key.
    """
    spec = instr.spec
    srcs = []
    for cls, idx in ((spec.src1, instr.rs1), (spec.src2, instr.rs2)):
        if cls is OperandClass.NONE or (cls is OperandClass.INT and idx == 0):
            srcs.append(None)
        else:
            srcs.append(("int" if cls is OperandClass.INT else "fp", idx))
    return (srcs[0], srcs[1], instr.destination(), 1 << instr.fu_type.bit_index)


def _lean_dispatch(lane: _Lane, fetched) -> None:
    """``RegisterUpdateUnit.dispatch`` with the batch-shared template.

    Field-for-field identical to the scalar dispatch path (bindings,
    rename, wake-up row allocation, entry bookkeeping); the revalidation
    the scalar path performs per call is guaranteed here by the caller
    (row headroom) and by construction (producer rows come from the live
    rename map).  The packed need field is written to the lane's array and
    the shared bank in one place, skipping the mirror round-trip.
    """
    ruu = lane.ruu
    wk = lane.wakeup
    tmpl = lane.templates.get(fetched.pc)
    if tmpl is None:
        tmpl = _dispatch_template(fetched.instruction)
        lane.templates[fetched.pc] = tmpl
    s1, s2, dest, type_bit = tmpl
    rename = ruu._rename
    row_by_seq = ruu._row_by_seq
    dep_bits = 0
    if s1 is None:
        b1 = None
    else:
        pseq = rename.get(s1)
        b1 = SourceBinding(s1[0], s1[1], pseq)
        if pseq is not None:
            r = row_by_seq.get(pseq)
            if r is not None:
                dep_bits |= 1 << r
    if s2 is None:
        b2 = None
    else:
        pseq = rename.get(s2)
        b2 = SourceBinding(s2[0], s2[1], pseq)
        if pseq is not None:
            r = row_by_seq.get(pseq)
            if r is not None:
                dep_bits |= 1 << r
    occ = wk._occupied
    free = ~occ & wk._all_rows
    row = (free & -free).bit_length() - 1  # lowest free row, as insert()
    field = type_bit | (dep_bits << _NUM_TYPES)
    wk._need |= field << (row * wk._width)
    wk._occupied = occ | (1 << row)
    lane.bank.set_row(lane.index, row, field)
    seq = ruu._next_seq
    ruu._next_seq = seq + 1
    entry = RuuEntry(seq=seq, fetched=fetched, sources=(b1, b2))
    ruu._entries[row] = entry
    ruu._order.append(entry)
    row_by_seq[seq] = row
    if dest is not None:
        rename[dest] = seq
    ruu.dispatched += 1


# ------------------------------------------------------------ per-lane step
def _step_rest(lane: _Lane, req_kernel: int, all_kernel: int) -> None:
    """Phases 2-6 of one lane's cycle (everything after retirement).

    Keep in lockstep with :meth:`repro.core.processor.Processor.step` —
    the per-cycle crosscheck and the equivalence suite pin the two engines
    to identical state.  The wake-up request masks arrive precomputed from
    the batched kernel; execution count-downs are advanced by the driver's
    batched timer phase, so no per-unit or per-entry tick sweeps run here.
    """
    proc = lane.proc
    ruu = lane.ruu
    fabric = lane.fabric
    issued = 0
    memory_stalls = 0
    resolutions = None

    if not ruu.halted:
        # 2. issue / execute / branch repair --------------------------------
        if not ruu._entries:
            proc._frontend_empty_cycles += 1
        wk = lane.wakeup
        live = wk._occupied & ~wk._scheduled
        req_mask = req_kernel & live
        requests = req_mask.bit_count()
        proc._resource_blocked_cycles += (all_kernel & live).bit_count() - requests
        if req_mask:
            counts = fabric.counts_tuple()
            busy = lane.busy_by_type
            rem = lane.scratch_rem
            for i in range(_NUM_TYPES):
                rem[i] = counts[i] - busy[i]  # == the scalar idle_counts
            entries = ruu._entries
            issued_per_type = ruu.issued_per_type
            ticker = lane.ticker
            lane_index = lane.index
            # grant oldest-first over the requesting rows only: scan the
            # set bits of the mask and order by sequence number (the same
            # order as walking _order, without touching the whole window)
            m = req_mask
            cand = []
            while m:
                low = m & -m
                row = low.bit_length() - 1
                m ^= low
                e = entries[row]
                cand.append((e.seq, row, e))
            if len(cand) > 1:
                cand.sort()
            for _, row, entry in cand:
                fu_type = entry.fu_type
                bi = _BI[fu_type]
                if rem[bi] <= 0:
                    continue
                rem[bi] -= 1
                if entry.is_load:
                    ok, forward = ruu._load_memory_check(entry)
                    if not ok:
                        memory_stalls += 1
                        ruu.memory_stalls += 1
                        continue  # request persists next cycle
                    ruu._execute_load(entry, forward)
                elif entry.is_store:
                    ruu._execute_store(entry)
                elif entry.instruction.is_control:
                    resolution = ruu._execute_control(entry)
                    if resolutions is None:
                        resolutions = [resolution]
                    else:
                        resolutions.append(resolution)
                else:
                    ruu._execute_alu(entry)
                latency = entry.instruction.latency
                unit = fabric.issue(fu_type, latency, entry.seq)
                entry.unit_uid = unit.uid
                entry.state = _ISSUED
                entry.countdown = latency
                entry.issue_cycle = proc.cycle_count
                wk._scheduled |= 1 << row  # mark_scheduled: row is live here
                lane.row_unit[row] = unit
                busy[bi] += 1
                ticker.start(lane_index, row, latency)
                issued_per_type[fu_type] += 1
                issued += 1
            if issued:
                lane.sig_dirty = True
        if resolutions is not None:
            # train the predictors; repair the pipeline on the oldest
            # mispredict (Processor._handle_resolutions, inlined)
            oldest = None
            for res in resolutions:
                instr = res.entry.instruction
                if instr.is_branch:
                    proc._branch_resolutions += 1
                    lane.predictor.update(
                        res.entry.pc, res.taken, mispredicted=res.mispredicted
                    )
                elif instr.opcode is Opcode.JALR:
                    lane.btb.update(res.entry.pc, res.target)
                if res.mispredicted:
                    proc._mispredictions += 1
                    if oldest is None or res.entry.seq < oldest.entry.seq:
                        oldest = res
            if oldest is not None:
                proc._squashed += ruu.flush_younger(oldest.entry.seq)
                proc._flushes += 1
                lane.decode.flush()
                lane.fetch.redirect(oldest.target)
        contention = requests - issued - memory_stalls
        if contention > 0:
            proc._contention_cycles += contention

        # 3. dispatch -------------------------------------------------------
        decode = lane.decode
        if decode._buffer:
            room = wk.n_entries - wk._occupied.bit_count()
            if room:
                for fetched in decode.pop(limit=room):
                    _lean_dispatch(lane, fetched)
                lane.sig_dirty = True

        # 4. fetch into decode ---------------------------------------------
        if decode.can_accept(lane.fetch_width):
            packet = lane.fetch.fetch_packet()
            if packet:
                decode.push(packet)

    # 5. steering policy (runs in the halt cycle too, as in the scalar step)
    kind = lane.kind
    if kind == _KIND_PAPER:
        _paper_cycle(lane)
    elif kind == _KIND_READY:
        lane.policy.cycle(ruu.ready_unscheduled(), ruu.retired)
    elif kind == _KIND_STATIC:
        if not lane.static_done:
            policy = lane.policy
            if not policy.loader.satisfied or not lane.rfus.bus_free:
                policy.loader.step()
            else:
                # the loader never evicts without a pending load, so a
                # satisfied target with a free bus is a terminal state:
                # every later scalar cycle evaluates to this same no-op
                lane.static_done = True
    elif kind == _KIND_PLAIN:
        lane.policy.cycle((), ruu.retired)

    # 6. utilisation + advance time (Processor.step, minus event stashing).
    # The busy ledger equals counts - idle_counts: units only become busy
    # through fabric.issue, and only idle units can be evicted, so the two
    # bookkeepings cannot diverge.
    counts = fabric.counts_tuple()
    busy = lane.busy_by_type
    conf_acc = lane.util_conf
    busy_acc = lane.util_busy
    for i in range(_NUM_TYPES):
        n = counts[i]
        if n:
            conf_acc[i] += n
            busy_acc[i] += busy[i]
    lane.rfus.tick_bus()  # unit count-downs advance in the batched phase
    proc.cycle_count += 1


def _paper_cycle(lane: _Lane) -> None:
    """One PaperSteering clock with the batch-shared selection unit.

    Mirrors :meth:`repro.steering.manager.ConfigurationManager.cycle`
    stat-for-stat, with two lane-engine accelerations: the selection is
    resolved through the shared unit's memo with a precomputed window
    signature (the memo key built here is exactly the one ``select()``
    would build), and when neither the waiting window nor the configured
    counts changed since the previous cycle the previous selection result
    is reused outright — ``select()`` is a pure function of that pair.
    """
    manager = lane.manager
    loader = lane.loader
    counts = loader.current_counts()  # the fabric's cached counts tuple
    if lane.sig_dirty or counts is not lane.last_counts:
        # pack the waiting-window type signature into one int (3 bits per
        # slot, leading sentinel keeps it injective): cheaper to build and
        # hash than the tuple key, probed through the batch-shared cache
        qs = lane.queue_size
        n = 0
        sig_int = 1
        for e in lane.ruu._order:
            if e.state is _WAITING:
                sig_int = (sig_int << 3) | _BI[e.fu_type]
                n += 1
                if n == qs:
                    break
        fkey = (sig_int, counts)
        result = lane.fast_memo.get(fkey)
        if result is None:
            # cold for the batch: fall through to the selection unit's own
            # memo with the exact key select() would build, then the full
            # four-stage evaluation
            unit = lane.select_unit
            memo = unit._memo
            sig = []
            for e in lane.ruu._order:
                if e.state is _WAITING:
                    sig.append(_BI[e.fu_type])
                    if len(sig) == qs:
                        break
            key = (tuple(sig), counts)
            result = memo.get(key)
            if result is not None:
                memo.move_to_end(key)
            else:
                window = [
                    e.instruction
                    for e in lane.ruu._order
                    if e.state is _WAITING
                ]
                result = unit.select(window, counts)
            lane.fast_memo[fkey] = result
        lane.sig_dirty = False
        lane.last_counts = counts
        lane.last_result = result
    else:
        result = lane.last_result
    loader.set_target(result.config)
    plan = loader.step()

    index = result.index
    error = result.errors[index]
    manager.last_selection = index
    manager.last_error = error
    stats = manager.stats
    stats.cycles += 1
    selections = stats.selections
    selections[index] = selections.get(index, 0) + 1
    stats.total_selected_error += error
    if plan is not None:
        stats.loads += 1
        manager.last_load = plan


# ------------------------------------------------------------- batch driver
def _check_shadow(lane: _Lane) -> None:
    """Compare a lane against its shadow scalar processor (crosscheck mode)."""
    shadow = lane.shadow
    shadow.step()
    proc = lane.proc
    ruu = lane.ruu
    sruu = shadow.ruu
    mismatches = []
    for label, got, want in (
        ("cycle", proc.cycle_count, shadow.cycle_count),
        ("halted", ruu.halted, sruu.halted),
        ("retired", ruu.retired, sruu.retired),
        ("dispatched", ruu.dispatched, sruu.dispatched),
        ("completed_bits", ruu._completed_bits, sruu._completed_bits),
        ("occupied", ruu.wakeup._occupied, sruu.wakeup._occupied),
        ("scheduled", ruu.wakeup._scheduled, sruu.wakeup._scheduled),
        (
            "availability",
            lane.fabric.availability_bits(),
            shadow.fabric.availability_bits(),
        ),
        ("fetch_pc", lane.fetch.pc, shadow.fetch.pc),
        ("decode_depth", len(lane.decode), len(shadow.decode)),
        ("mispredictions", proc._mispredictions, shadow._mispredictions),
        ("memory_stalls", ruu.memory_stalls, sruu.memory_stalls),
    ):
        if got != want:
            mismatches.append(f"{label}: vector={got!r} scalar={want!r}")
    if mismatches:
        raise SimulationError(
            f"vector lane {lane.index} diverged from the scalar reference at "
            f"cycle {proc.cycle_count}: " + "; ".join(mismatches)
        )


def run_vector_batch(jobs, crosscheck: bool | None = None) -> list[Any]:
    """Run a batch of jobs sharing one program in lock-step lanes.

    ``jobs`` are :class:`~repro.evaluation.batch.SimJob`-shaped objects
    (``factory``/``program``/``params``/``max_cycles``/``kwargs``) that all
    reference the same program and satisfy :func:`vector_eligible`.
    Returns one result per job, in submission order — each the exact value
    the scalar engine's factory would have produced.

    ``crosscheck`` steps a shadow scalar processor per lane and verifies
    the pipeline state after every cycle (defaults to the
    ``REPRO_VECTOR_CROSSCHECK`` environment toggle).
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if crosscheck is None:
        crosscheck = crosscheck_enabled()

    for job in jobs:
        if job.max_cycles <= 0:
            raise SimulationError("max_cycles must be positive")
        if not vector_eligible(job.factory, job.params):
            raise SimulationError(
                f"job factory {job.factory!r} is not vector-eligible"
            )

    program = jobs[0].program
    max_rows = max(
        (j.params if j.params is not None else _DEFAULT_PARAMS).window_size
        for j in jobs
    )
    n_lanes = len(jobs)
    bank = make_lane_bank(n_lanes, max_rows)
    ticker = make_countdown_bank(n_lanes, max_rows)

    shared: dict = {}
    shared_units: dict = {}
    templates: dict = {}
    lanes: list[_Lane] = []
    for i, job in enumerate(jobs):
        proc = _build_processor(
            job.factory, program, job.params, job.kwargs, shared
        )
        # swap in the mirrored wake-up array before anything dispatches
        mirror = _MirrorWakeup(proc.params.window_size, bank, i)
        proc.ruu.wakeup = mirror
        lane = _Lane(i, proc, job.max_cycles)
        lane.bank = bank
        lane.ticker = ticker
        lane.templates = templates
        mirror._lane = lane
        _classify(lane, shared_units)
        if crosscheck:
            lane.shadow = _build_processor(
                job.factory, program, job.params, job.kwargs, shared
            )
        lanes.append(lane)

    active = list(lanes)
    active_idx = list(range(n_lanes))
    avail_vals = [0] * n_lanes
    bank_requests = bank.requests
    while active:
        # phase 1: in-order retirement (frees rows, may halt the lane),
        # then this cycle's post-retire availability words, set in bulk
        n_active = 0
        for lane in active:
            ruu = lane.ruu
            order = ruu._order
            if order and order[0].state is _COMPLETED:
                proc = lane.proc
                # mirrors Processor.step exactly: phase 1 runs before this
                # cycle's _step_rest increments cycle_count, so the stamp
                # matches the scalar engine's pre-increment value
                proc._last_retire_cycle = proc.cycle_count
                rpt = proc._retired_per_type
                for entry in ruu.retire():
                    rpt[entry.fu_type] += 1
            avail_vals[n_active] = lane.fabric.availability_bits() | (
                ruu._completed_bits << _NUM_TYPES
            )
            n_active += 1
        bank.set_avail_many(active_idx, avail_vals[:n_active])
        # phase 2: one batched wake-up evaluation for every lane
        req_masks, all_masks = bank_requests()
        # phase 3: the rest of the cycle, lane by lane
        for lane in active:
            index = lane.index
            _step_rest(lane, req_masks[index], all_masks[index])
        # phase 4: batched count-down timers; apply the completions (the
        # scalar engine's fabric.tick + ruu.tick transitions, by event)
        for lane_i, row in ticker.advance():
            lane = lanes[lane_i]
            ruu = lane.ruu
            entry = ruu._entries[row]
            entry.countdown = 0
            entry.state = _COMPLETED
            ruu._completed_bits |= 1 << row
            unit = lane.row_unit[row]
            lane.row_unit[row] = None
            lane.busy_by_type[_BI[unit.fu_type]] -= 1
            unit.release()
        if crosscheck:
            for lane in active:
                _check_shadow(lane)
        # phase 5: mask out finished lanes (flushing their accumulated
        # utilisation stats into the processor's per-type dicts)
        finished = False
        for lane in active:
            if lane.ruu.halted or lane.proc.cycle_count >= lane.max_cycles:
                lane.done = True
                ticker.clear_lane(lane.index)
                # break lane -> proc.ruu.wakeup -> lane, so the lane's
                # processor is freed by refcount, not the cyclic GC
                lane.wakeup._lane = None
                proc = lane.proc
                conf_acc = lane.util_conf
                busy_acc = lane.util_busy
                for i, t in _FU_INDEXED:
                    proc._configured_cycles[t] += conf_acc[i]
                    proc._busy_cycles[t] += busy_acc[i]
                finished = True
        if finished:
            active = [lane for lane in active if not lane.done]
            active_idx = [lane.index for lane in active]

    return [lane.proc.result() for lane in lanes]
