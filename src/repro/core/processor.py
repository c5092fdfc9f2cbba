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
#: ``(index, type)`` over FU_TYPES, the order of ``Fabric.counts_tuple()``.
_FU_INDEXED = tuple(enumerate(FU_TYPES))


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
        self.policy.bind(self.fabric)

        self.cycle_count = 0
        self.observer = observer
        self._retired_per_type = {t: 0 for t in FU_TYPES}
        #: cycle of the most recent retirement — drives the completed/
        #: cutoff/deadlock outcome classification in :meth:`result`.
        self._last_retire_cycle = 0
        #: per-type busy and configured unit-cycles, indexed like
        #: ``FU_TYPES`` (list adds, not enum-keyed dict updates, per cycle).
        self._busy_cycles = [0] * len(FU_TYPES)
        self._configured_cycles = [0] * len(FU_TYPES)
        self._mispredictions = 0
        self._branch_resolutions = 0
        self._flushes = 0
        self._squashed = 0
        # stall attribution (unit-cycles, accumulated every cycle) --------
        self._frontend_empty_cycles = 0
        self._resource_blocked_cycles = 0
        self._contention_cycles = 0

    @property
    def observer(self):
        """Optional cycle observer (protocol in :mod:`repro.core.tracing`).

        ``on_stage`` runs as each of the six pipeline stages starts and
        ``on_cycle`` after the tick; ``None`` costs one test per hook.  An
        observer whose ``active`` is ``False`` records nothing, so it is
        stored as ``None`` and the loop never calls it.
        """
        return self._observer

    @observer.setter
    def observer(self, observer) -> None:
        if observer is not None and not getattr(observer, "active", True):
            observer = None
        self._observer = observer

    # --------------------------------------------------------------- cycle
    def step(self) -> None:
        """Simulate one clock cycle."""
        obs = self._observer
        ruu = self.ruu
        if obs is not None:
            obs.on_stage(self, "retire")  # repro: cold-call -- observer hook
        # 1. retire, when the oldest in-flight entry has completed
        retired: Sequence = ()
        order = ruu._order
        if order and order[0].state is _COMPLETED:
            retired = ruu.retire()
            self._last_retire_cycle = self.cycle_count
            retired_per_type = self._retired_per_type
            for entry in retired:
                retired_per_type[entry.fu_type] += 1

        # 2. issue / execute / branch repair
        if obs is not None:
            # repro: cold-call -- observer hook
            obs.on_stage(self, "wakeup_select_execute")
        issued: Sequence[int] = ()
        flushed = 0
        if not ruu.halted:
            if ruu.empty:
                self._frontend_empty_cycles += 1
            flushed_before = ruu.flushed
            report = ruu.issue_and_execute()
            issued = report.issued
            if report.resolutions:
                self._handle_resolutions(report.resolutions)
                flushed = ruu.flushed - flushed_before
            self._resource_blocked_cycles += report.resource_blocked
            self._contention_cycles += max(
                0, report.requests - len(report.granted) - report.memory_stalls
            )

        # 3. dispatch
        if obs is not None:
            obs.on_stage(self, "dispatch")  # repro: cold-call -- observer hook
        dispatched: list[int] = []
        if not ruu.halted and len(self.decode):
            for fetched in self.decode.pop(limit=ruu.wakeup.free_count()):
                dispatched.append(ruu.dispatch(fetched).seq)

        # 4. fetch into decode
        if obs is not None:
            obs.on_stage(self, "fetch")  # repro: cold-call -- observer hook
        packet: Sequence = ()
        if not ruu.halted and self.decode.can_accept(self.params.fetch_width):
            fetched_packet = self.fetch.fetch_packet()
            if fetched_packet:
                self.decode.push(fetched_packet)
                packet = fetched_packet

        # 5. steering policy
        if obs is not None:
            obs.on_stage(self, "steer")  # repro: cold-call -- observer hook
        self.policy.cycle(ruu)

        # 6. advance time: utilisation, the configuration bus, completions
        if obs is not None:
            obs.on_stage(self, "tick")  # repro: cold-call -- observer hook
        fabric = self.fabric
        counts = fabric.counts_tuple()
        idle = fabric.idle_counts()
        configured_cycles = self._configured_cycles
        busy_cycles = self._busy_cycles
        for i, t in _FU_INDEXED:
            n = counts[i]
            if n:
                configured_cycles[i] += n
                busy_cycles[i] += n - idle[t]
        fabric.rfus.tick()
        ruu.tick()
        if obs is not None:
            # repro: cold-call -- observer hook
            obs.on_cycle(self, packet, dispatched, issued, retired, flushed)
        self.cycle_count += 1

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
            elif instr.opcode is Opcode.JALR:
                self.btb.update(res.entry.pc, res.target)
            if res.mispredicted:
                self._mispredictions += 1
                if (
                    oldest_mispredict is None
                    or res.entry.seq < oldest_mispredict.entry.seq
                ):
                    oldest_mispredict = res
        if oldest_mispredict is not None:
            # repro: cold-call -- mispredict repair: bounded by branch
            # resolution events, not cycles
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
        res = SimulationResult(
            policy=self.policy.name,
            cycles=self.cycle_count,
            retired=self.ruu.retired,
            halted=self.ruu.halted,
            outcome=outcome,
            retired_per_type=dict(self._retired_per_type),
            busy_unit_cycles=dict(zip(FU_TYPES, self._busy_cycles)),
            configured_unit_cycles=dict(zip(FU_TYPES, self._configured_cycles)),
            mispredictions=self._mispredictions,
            branch_resolutions=self._branch_resolutions,
            flushes=self._flushes,
            squashed=self._squashed,
            memory_stalls=self.ruu.memory_stalls,
            scheduling_replays=self.ruu.scheduling_replays,
            frontend_empty_cycles=self._frontend_empty_cycles,
            resource_blocked_cycles=self._resource_blocked_cycles,
            contention_cycles=self._contention_cycles,
            reconfigurations=self.fabric.reconfigurations,
            reconfig_bus_cycles=self.fabric.rfus.bus_busy_cycles,
            fetch_packets=self.fetch.packets,
            fetched=self.fetch.fetched,
            trace_cache_hits=self.trace_cache.hits if self.trace_cache else 0,
            trace_cache_misses=self.trace_cache.misses if self.trace_cache else 0,
            final_registers=self.ruu.regfile.snapshot(),
        )
        manager = getattr(self.policy, "manager", None)
        if manager is not None:
            res.steering_selections = dict(manager.stats.selections)
            res.steering_mean_error = manager.stats.mean_selected_error
            res.steering_kept_fraction = manager.stats.current_kept_fraction
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
