"""The cycle-level processor: every Fig. 1 module wired together.

Pipeline order within one simulated cycle (back to front, the standard
discipline so a value never traverses two stages in one cycle):

1. **retire** — in-order commit of completed entries (stores write memory);
2. **issue/execute** — wake-up requests, grants, functional execution,
   branch resolution and mispredict recovery;
3. **dispatch** — decoded instructions enter free wake-up rows;
4. **decode/fetch** — the fetch unit follows the predicted path into the
   decode buffer;
5. **steer** — the configuration-management policy observes the ready
   queue and (possibly) starts a partial reconfiguration;
6. **tick** — the configuration bus advances one cycle and the register
   update unit completes the instructions due this cycle, releasing their
   functional units.

Utilisation is accounted by event, not swept per cycle.  The busy
unit-cycles are added by the register update unit as each occupancy ends.
The configured counts are constant between changes of the slot array's
``structure_version``, so the tick stage integrates counts x cycles only
when it sees the version move; :meth:`Processor.result` adds the interval
still open.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.params import ProcessorParams
from repro.core.policies import PaperSteering, SteeringPolicy
from repro.core.stats import (
    OUTCOME_COMPLETED,
    OUTCOME_CUTOFF,
    OUTCOME_DEADLOCK,
    SimulationResult,
)
from repro.errors import SimulationError
from repro.fabric.fabric import Fabric
from repro.frontend.branch import BTB, BranchPredictor
from repro.frontend.decode import DecodeStage
from repro.frontend.fetch import FetchUnit
from repro.frontend.memory import DataMemory, InstructionMemory
from repro.frontend.trace_cache import TraceCache
from repro.isa.futypes import FU_TYPES
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.sched.entry import EntryState
from repro.sched.ruu import RegisterUpdateUnit

__all__ = ["Processor", "DEADLOCK_WINDOW"]

#: cycles without a single retirement after which a stopped, non-halted
#: run is classified ``deadlock`` rather than ``cutoff``.  Generously
#: above the longest legitimate stall the model can produce (a full
#: fabric reload is ``n_slots * reconfig_latency`` bus cycles, and
#: instruction latencies top out in the tens), so a window this wide
#: with zero retirements means the pipeline has wedged for good.
DEADLOCK_WINDOW = 4096

_COMPLETED = EntryState.COMPLETED
_JALR = Opcode.JALR


class Processor:
    """One simulated processor instance executing one program."""

    def __init__(
        self,
        program: Program,
        params: ProcessorParams | None = None,
        policy: SteeringPolicy | None = None,
        entry: str = "main",
        observer=None,
    ) -> None:
        self.params = params if params is not None else ProcessorParams()
        self.policy = policy if policy is not None else PaperSteering()
        self.program = program

        self.imem = InstructionMemory(program)
        self.dmem = DataMemory(size=self.params.dmem_size, image=program.data)
        self.predictor = BranchPredictor(self.params.predictor_entries)
        self.btb = BTB(self.params.btb_entries)
        self.trace_cache = (
            TraceCache(self.params.trace_cache_capacity)
            if self.params.use_trace_cache
            else None
        )
        self.fetch = FetchUnit(
            self.imem,
            predictor=self.predictor,
            btb=self.btb,
            trace_cache=self.trace_cache,
            width=self.params.fetch_width,
            entry=program.entry(entry),
        )
        self.decode = DecodeStage(
            width=self.params.fetch_width, capacity=self.params.decode_capacity
        )
        self.fabric = Fabric(
            n_slots=self.params.n_slots,
            reconfig_latency=self.params.reconfig_latency,
            ffu_counts=self.params.ffu_counts,
            reconfig_mode=self.params.reconfig_mode,
        )
        self.ruu = RegisterUpdateUnit(
            self.fabric,
            self.dmem,
            window_size=self.params.window_size,
            retire_width=self.params.retire_width,
            pipelined_scheduling=self.params.pipelined_scheduling,
        )
        self.policy.bind(self.fabric, self.params)

        self.cycle_count = 0
        #: optional cycle observer (protocol in :mod:`repro.core.tracing`):
        #: ``on_stage`` runs as each of the six pipeline stages starts and
        #: ``on_cycle`` after the tick; ``None`` costs one test per hook.
        self.observer = observer
        #: cycle of the most recent retirement — drives the completed/
        #: cutoff/deadlock outcome classification in :meth:`result`.
        self._last_retire_cycle = 0
        #: configured unit-cycles per type (indexed like ``FU_TYPES``) of
        #: the closed intervals; the open one started at tick
        #: ``_configured_since`` with ``_configured_counts`` and lasts while
        #: the slot array's structure version is ``_structure_seen``.
        self._configured_cycles = [0] * len(FU_TYPES)
        self._configured_counts: tuple[int, ...] = (0,) * len(FU_TYPES)
        self._configured_since = 0
        self._structure_seen = -1
        self._mispredictions = 0
        self._branch_resolutions = 0
        self._flushes = 0
        self._squashed = 0
        #: cycles issue found the window empty (the other stall counts are
        #: the register update unit's).
        self._frontend_empty_cycles = 0

    # --------------------------------------------------------------- cycle
    def step(self) -> None:
        """Simulate one clock cycle."""
        obs = self.observer
        ruu = self.ruu
        if obs is not None:
            obs.on_stage(self, "retire")
        # 1. retire, when the oldest in-flight entry has completed
        retired: Sequence = ()
        order = ruu._order
        if order and order[0].state is _COMPLETED:
            retired = ruu.retire()
            self._last_retire_cycle = self.cycle_count

        # 2. issue / execute / branch repair
        if obs is not None:
            obs.on_stage(self, "wakeup_select_execute")
        issued: Sequence[int] = ()
        flushed = 0
        if not ruu.halted:
            if not ruu._entries:  # RegisterUpdateUnit.empty
                self._frontend_empty_cycles += 1
            issued, resolutions = ruu.issue_and_execute()
            if resolutions:
                flushed_before = ruu.flushed
                self._handle_resolutions(resolutions)
                flushed = ruu.flushed - flushed_before

        # 3. dispatch, when an instruction waits and a wake-up row is free
        # (RegisterUpdateUnit.dispatch_decoded applies the decode-width,
        # free-row and buffer limit)
        if obs is not None:
            obs.on_stage(self, "dispatch")
        dispatched: Sequence[int] = ()
        decode = self.decode
        decode_buffer = decode._buffer
        wakeup = ruu.wakeup
        if (
            decode_buffer
            and not ruu.halted
            and wakeup._occupied != wakeup._all_rows  # WakeupArray.full
        ):
            n = ruu.dispatch_decoded(decode)
            if obs is not None and n:
                dispatched = []
                for entry in ruu._order[-n:]:
                    dispatched.append(entry.seq)

        # 4. fetch into decode, when a whole packet fits
        if obs is not None:
            obs.on_stage(self, "fetch")
        packet: Sequence = ()
        if (
            not ruu.halted
            and len(decode_buffer) + decode.width <= decode.capacity
        ):
            fetched_packet = self.fetch.fetch_packet()
            if fetched_packet:
                decode.push(fetched_packet)
                packet = fetched_packet

        # 5. steering policy
        if obs is not None:
            obs.on_stage(self, "steer")
        self.policy.cycle(ruu)

        # 6. advance time: configured units, the configuration bus,
        # completions
        if obs is not None:
            obs.on_stage(self, "tick")
        rfus = self.fabric.rfus
        if rfus.structure_version != self._structure_seen:
            self._close_configured_interval()
        rfus.tick()
        ruu.tick()
        if obs is not None:
            obs.on_cycle(self, packet, dispatched, issued, retired, flushed)
        self.cycle_count += 1

    def _close_configured_interval(self) -> None:
        """Add the ended interval's configured unit-cycles and open the next
        one with the counts configured from this tick on."""
        clock = self.ruu.clock
        span = clock - self._configured_since
        totals = self._configured_cycles
        for i, n in enumerate(self._configured_counts):
            totals[i] += n * span
        self._configured_counts = self.fabric.counts_tuple()
        self._configured_since = clock
        self._structure_seen = self.fabric.rfus.structure_version

    def _handle_resolutions(self, resolutions) -> None:
        """Train the predictors; repair the pipeline on the oldest mispredict."""
        oldest_mispredict = None
        for res in resolutions:
            instr = res.entry.instruction
            if instr.is_branch:
                self._branch_resolutions += 1
                self.predictor.update(
                    res.entry.pc, res.taken, mispredicted=res.mispredicted
                )
            elif instr.opcode is _JALR:
                self.btb.update(res.entry.pc, res.target)
            if res.mispredicted:
                self._mispredictions += 1
                if (
                    oldest_mispredict is None
                    or res.entry.seq < oldest_mispredict.entry.seq
                ):
                    oldest_mispredict = res
        if oldest_mispredict is not None:
            self._squashed += self.ruu.flush_younger(oldest_mispredict.entry.seq)
            self._flushes += 1
            self.decode.flush()
            self.fetch.redirect(oldest_mispredict.target)

    # ----------------------------------------------------------------- run
    def run(self, max_cycles: int = 1_000_000) -> SimulationResult:
        """Simulate until the program halts (or the cycle budget runs out)."""
        if max_cycles <= 0:
            raise SimulationError("max_cycles must be positive")
        while not self.ruu.halted and self.cycle_count < max_cycles:
            self.step()
        return self.result()

    def result(self) -> SimulationResult:
        """Snapshot the statistics collected so far."""
        if self.ruu.halted:
            outcome = OUTCOME_COMPLETED
        elif self.cycle_count - self._last_retire_cycle >= DEADLOCK_WINDOW:
            outcome = OUTCOME_DEADLOCK
        else:
            outcome = OUTCOME_CUTOFF
        # the open interval runs up to the last tick (the RUU's clock)
        span = self.ruu.clock - self._configured_since
        configured = {
            t: total + n * span
            for t, total, n in zip(
                FU_TYPES, self._configured_cycles, self._configured_counts
            )
        }
        res = SimulationResult(
            policy=self.policy.name,
            cycles=self.cycle_count,
            retired=self.ruu.retired,
            halted=self.ruu.halted,
            outcome=outcome,
            retired_per_type=dict(self.ruu.retired_per_type),
            busy_unit_cycles=self.ruu.busy_unit_cycles(),
            configured_unit_cycles=configured,
            mispredictions=self._mispredictions,
            branch_resolutions=self._branch_resolutions,
            flushes=self._flushes,
            squashed=self._squashed,
            memory_stalls=self.ruu.memory_stalls,
            scheduling_replays=self.ruu.scheduling_replays,
            frontend_empty_cycles=self._frontend_empty_cycles,
            resource_blocked_cycles=self.ruu.resource_blocked_cycles,
            contention_cycles=self.ruu.contention_cycles,
            reconfigurations=self.fabric.reconfigurations,
            reconfig_bus_cycles=self.fabric.rfus.bus_busy_cycles,
            fetch_packets=self.fetch.packets,
            fetched=self.fetch.fetched,
            trace_cache_hits=self.trace_cache.hits if self.trace_cache else 0,
            trace_cache_misses=self.trace_cache.misses if self.trace_cache else 0,
            final_registers=self.ruu.regfile.snapshot(),
        )
        policy = self.policy
        if policy.last_result is not None:
            # the paper's manager selected once per steered cycle
            selections = policy.selections
            steered = sum(selections.values())
            res.steering_selections = dict(selections)
            res.steering_mean_error = policy.selected_error / steered
            res.steering_kept_fraction = selections.get(0, 0) / steered
        return res

    # ------------------------------------------------------------- helpers
    def module_inventory(self) -> dict[str, str]:
        """The Fig. 1 module list with the implementing classes (F1 artefact)."""
        return {
            "instruction memory": type(self.imem).__name__,
            "data memory": type(self.dmem).__name__,
            "fetch unit": type(self.fetch).__name__,
            "trace cache": type(self.trace_cache).__name__ if self.trace_cache else "(disabled)",
            "instruction decoder": type(self.decode).__name__,
            "register update unit": type(self.ruu).__name__,
            "register files": type(self.ruu.regfile).__name__,
            "wake-up array": type(self.ruu.wakeup).__name__,
            "fixed functional units": type(self.fabric.ffus).__name__,
            "reconfigurable slots": type(self.fabric.rfus).__name__,
            "configuration management": self.policy.describe(),
        }
