"""The four-stage configuration-selection unit (Fig. 2).

Inputs each cycle: the instructions in the queue that are ready to execute,
and the number of units of each type currently configured (from the
configuration loader).  Output: a two-bit value selecting which of the four
candidates — candidate 0 is always the current configuration, candidates
1..3 the predefined steering configurations — should begin loading.

Tie-breaking follows §3.1: among equal error metrics the unit picks the
candidate requiring the least reconfiguration, which in particular means
the current configuration (distance zero) always wins its ties.  The
comparison is implemented as a single magnitude compare on the
concatenated key ``error ‖ distance`` so it remains one comparator tree in
hardware.

:meth:`ConfigurationSelectionUnit.select` is a pure function of the window's
unit types and the current counts, so its results are memoised in one
bounded LRU memo per process for every unit with the same configurations,
fixed-unit counts, queue size and metric mode: the jobs of a sweep warm one
memo instead of each starting cold.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

from repro.circuits.comparators import minimum_index
from repro.fabric.configuration import FFU_COUNTS, PREDEFINED_CONFIGS, Configuration
from repro.isa.futypes import FU_TYPES
from repro.isa.instruction import Instruction
from repro.steering.decoders import UnitDecoder
from repro.steering.error_metric import SUM_WIDTH, ErrorMetricGenerator, exact_error
from repro.steering.requirements import RequirementsEncoder

__all__ = ["SelectionResult", "ConfigurationSelectionUnit"]

#: bits used for the reconfiguration-distance field of the tie-break key.
_DISTANCE_WIDTH = 6

#: maximum number of memoised select() evaluations per memo (LRU-evicted
#: beyond).
_MEMO_CAPACITY = 16384

#: unit signature -> the select() memo every unit with that signature shares.
_SHARED_MEMOS: dict[tuple, OrderedDict] = {}
#: guards the memos and their registry: the serving job queue simulates on
#: a background thread while the API thread may run simulations too.
_MEMO_LOCK = threading.Lock()


def clear_shared_memos() -> None:
    """Forget every shared select() memo (units built later start cold)."""
    with _MEMO_LOCK:
        _SHARED_MEMOS.clear()


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Outcome of one selection-unit evaluation."""

    #: two-bit output: 0 = keep the current configuration, 1..3 = begin
    #: steering toward that predefined configuration.
    index: int
    #: the chosen predefined configuration, or None when index == 0.
    config: Configuration | None
    #: 6-bit error metric of every candidate, current first.
    errors: tuple[int, ...]
    #: the stage-2 required-unit counts that drove the decision.
    required: tuple[int, ...]

    @property
    def keeps_current(self) -> bool:
        return self.index == 0


class ConfigurationSelectionUnit:
    """Fig. 2: decoders -> encoders -> CEM generators -> minimal-error select."""

    def __init__(
        self,
        configs: Sequence[Configuration] = PREDEFINED_CONFIGS,
        ffu_counts: dict | None = None,
        queue_size: int = 7,
        use_exact_metric: bool = False,
    ) -> None:
        self.configs = tuple(configs)
        self.ffu_counts = FFU_COUNTS if ffu_counts is None else dict(ffu_counts)
        self.queue_size = queue_size
        self.use_exact_metric = use_exact_metric
        self.decoder = UnitDecoder()
        self.encoder = RequirementsEncoder()
        self._current_gen = ErrorMetricGenerator(None, self.ffu_counts)
        self._config_gens = tuple(
            ErrorMetricGenerator(c, self.ffu_counts) for c in self.configs
        )
        # select() is a pure function of the queue's unit types and the
        # current counts, so its (gate-level-faithful, hence expensive)
        # evaluation is memoised: identical inputs return the identical
        # SelectionResult without re-simulating the adders and shifters.
        # The memo is shared by every unit of this signature in the
        # process.  Bounded by LRU eviction: recency order is maintained
        # by move-to-end on every hit, and at capacity the single coldest
        # entry is dropped — a long phased workload keeps its hot window
        # states cached instead of losing the whole memo to a reset.
        signature = (
            tuple((c.name, tuple(sorted(c.counts.items()))) for c in self.configs),
            tuple(sorted(self.ffu_counts.items())),
            queue_size,
            use_exact_metric,
        )
        with _MEMO_LOCK:
            self._memo: OrderedDict[tuple, SelectionResult] = (
                _SHARED_MEMOS.setdefault(signature, OrderedDict())
            )

    # ------------------------------------------------------------- stages
    def required_counts(
        self, queue: Sequence[Instruction | int]
    ) -> tuple[int, ...]:
        """Stages 1+2: decode the queue and count required units per type."""
        window = list(queue)[: self.queue_size]
        onehots = [self.decoder(item) for item in window]
        return self.encoder(onehots)

    def candidate_errors(
        self,
        required: Sequence[int],
        current_counts: Sequence[int],
    ) -> tuple[int, ...]:
        """Stage 3: the error metric of every candidate, current first."""
        if self.use_exact_metric:
            # ablation mode: scaled exact division quantised to the same
            # 6-bit range the hardware metric occupies.
            cur = exact_error(required, self._current_gen.available_counts(current_counts))
            errs = [cur] + [
                exact_error(required, g.available_counts()) for g in self._config_gens
            ]
            limit = (1 << SUM_WIDTH) - 1
            return tuple(min(limit, round(e)) for e in errs)
        current = self._current_gen.error(required, current_counts)
        predefined = [g.error(required) for g in self._config_gens]
        return tuple([current] + predefined)

    def _distances(self, current_counts: Sequence[int]) -> tuple[int, ...]:
        """Reconfiguration distance of every candidate from the current state.

        Measured as the L1 distance between unit-count vectors (a cheap
        proxy for the number of slots the loader would rewrite); the
        current configuration is at distance zero by construction.
        """
        limit = (1 << _DISTANCE_WIDTH) - 1
        out = [0]
        for g in self._config_gens:
            target = g.available_counts()
            d = sum(abs(a - b) for a, b in zip(target, current_counts))
            out.append(min(d, limit))
        return tuple(out)

    # ------------------------------------------------------------ end-to-end
    # repro: allow[HOT001] -- the memo key must be a fresh tuple (it is
    # stored in the memo), and everything past the memo hit is the miss
    # path: those allocations are exactly what the memo amortises away
    def select(
        self,
        queue: Sequence[Instruction | int],
        current_counts: Sequence[int],
    ) -> SelectionResult:
        """Run all four stages and return the two-bit selection.

        ``current_counts`` is the per-type number of units currently
        configured (fixed + loaded reconfigurable), in canonical type order
        — the loader input shown entering Fig. 2 from the right.
        """
        if len(current_counts) != len(FU_TYPES):
            raise ValueError(
                f"current_counts needs {len(FU_TYPES)} entries, got {len(current_counts)}"
            )
        window = queue[: self.queue_size]
        # the unit type of each entry (one list comprehension: a generator
        # would resume once per entry, a ``bit_index`` read call once more)
        memo_key = (
            tuple([
                item.fu_type if isinstance(item, Instruction) else ("word", item)
                for item in window
            ]),
            tuple(current_counts),
        )
        memo = self._memo
        with _MEMO_LOCK:
            cached = memo.get(memo_key)
            if cached is not None:
                memo.move_to_end(memo_key)
                return cached
        # repro: cold-call -- memo-miss path: amortised by the LRU memo above
        required = self.required_counts(window)
        # repro: cold-call -- memo-miss path: amortised by the LRU memo above
        errors = self.candidate_errors(required, current_counts)
        # repro: cold-call -- memo-miss path: amortised by the LRU memo above
        distances = self._distances(current_counts)
        keys = [
            (e << _DISTANCE_WIDTH) | d for e, d in zip(errors, distances)
        ]
        index = minimum_index(keys, SUM_WIDTH + _DISTANCE_WIDTH)
        config = None if index == 0 else self.configs[index - 1]
        result = SelectionResult(
            index=index, config=config, errors=errors, required=required
        )
        with _MEMO_LOCK:
            if len(memo) >= _MEMO_CAPACITY:
                memo.popitem(last=False)  # evict the least recently used
            memo[memo_key] = result
        return result
