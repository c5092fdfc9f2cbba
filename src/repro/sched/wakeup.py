"""The wake-up array (Figs. 5 and 6 of the paper).

Each row holds the *resource vector* of one instruction-queue entry:

* five **execution-unit columns** (bit set = the instruction needs that
  unit type), driven by the per-type availability lines of Eq. 1;
* one **result column per row** (bit set = the instruction needs the
  result of that row's instruction), driven by the result-available lines
  of the count-down timers;
* a **scheduled bit** that suppresses further requests once the
  instruction has been granted (de-asserted again by ``reschedule``).

A row requests execution when, for every column, the OR of "not needed"
and "available" is true, and its scheduled bit is clear — exactly the
Fig. 6 gate network.

Representation: the whole matrix is **bit-packed into machine integers**.
Row *i*'s needs occupy one field of a single Python int (``_need``) at bit
offset ``i * field_width``::

    field := resource_bits          (NUM_FU_TYPES bits)
           | dep_bits << NUM_FU_TYPES   (n_entries bits)
           | guard                  (1 bit, always clear in _need)

and the occupied/scheduled flags are plain n-bit masks.  The per-cycle
request evaluation (:meth:`requests_mask`) runs the Fig. 6 logic for *all*
rows in one pass of word-wide bitwise operations — replicate the
availability buses across every field with one multiply, AND with the
stored needs to get the unmet columns, then zero-detect every field
simultaneously with the carry-free guard-bit subtraction trick.  No loop
over rows, no per-row objects on the hot path.

:class:`WakeupRow` and the ``rows`` list survive as a read-only facade
(snapshots built on demand) so rendering, tests and debuggers see the
same object API as before.  :meth:`requests_reference` keeps the original
row-loop implementation; the equivalence suite (and the opt-in
``WakeupArray.crosscheck`` mode) pin the kernel to it bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulerError
from repro.isa.futypes import FU_BIT, FU_TYPES, NUM_FU_TYPES, FUType

__all__ = ["WakeupRow", "WakeupArray"]

#: mask of the resource (execution-unit) columns within one packed field.
_RES_MASK = (1 << NUM_FU_TYPES) - 1

#: array size -> the ``(mask memo, list memo)`` pair every array of that
#: size shares.  Both map a pattern of the packed geometry to the rows it
#: names, so they depend on the size alone, and a job's array starts warm
#: from the jobs run before it in the same process.
_MEMOS: dict[int, tuple[dict[int, int], dict[int, tuple[int, ...]]]] = {}


@dataclass(slots=True)
class WakeupRow:
    """Read-only snapshot of one occupied row (see :attr:`WakeupArray.rows`)."""

    #: one-hot unit-type requirement (5 bits, Fig. 2 bit order).
    resource_bits: int
    #: dependency bitmap over the array's rows (bit i = needs row i's result).
    dep_bits: int
    scheduled: bool = False


class WakeupArray:
    """Fixed-size array of resource vectors with select-free request logic."""

    #: when set (class-wide), every :meth:`requests_mask` evaluation is
    #: checked against :meth:`requests_reference`; a divergence raises
    #: :class:`SchedulerError`.  Used by the equivalence tests.  While set,
    #: the register update unit evaluates every issue step (it otherwise
    #: reuses a request-free step while ``_need``, ``_occupied``,
    #: ``_scheduled`` and the buses are unchanged).
    crosscheck = False

    def __init__(self, n_entries: int = 7) -> None:
        if n_entries <= 0:
            raise SchedulerError(f"wake-up array size must be positive: {n_entries}")
        n = n_entries
        self.n_entries = n
        # ---- packed-field geometry (see module docstring) ----------------
        width = NUM_FU_TYPES + n + 1  # resource | dep | guard
        self._width = width
        self._field_mask = (1 << (width - 1)) - 1  # one field, guard excluded
        ones = 0
        for i in range(n):
            ones |= 1 << (i * width)
        self._row_ones = ones  # bit 0 of every field
        self._guards = ones << (width - 1)  # guard bit of every field
        self._lo_mask = self._field_mask * ones  # all non-guard bits
        #: per row: ``_need`` with that row's field and its result column
        #: in every row cleared (what :meth:`remove` ANDs in).
        self._remove_masks = tuple(
            ~((self._field_mask << (i * width)) | (ones << (NUM_FU_TYPES + i)))
            for i in range(n)
        )
        # ---- packed state ------------------------------------------------
        self._need = 0  # all rows' resource+dep fields
        self._occupied = 0  # n-bit row-occupancy mask
        self._scheduled = 0  # n-bit scheduled mask
        self._all_rows = (1 << n) - 1
        # guard-bit pattern -> row mask / row mask -> row tuple memos
        # (≤ 2**n entries each), shared by every array of this size
        memos = _MEMOS.get(n)
        if memos is None:
            memos = _MEMOS[n] = ({}, {})
        self._mask_memo, self._list_memo = memos

    # ------------------------------------------------------------ occupancy
    def __len__(self) -> int:
        return self._occupied.bit_count()

    @property
    def full(self) -> bool:
        return self._occupied == self._all_rows

    @property
    def rows(self) -> list[WakeupRow | None]:
        """Per-row snapshots (``None`` for free rows).  Read-only facade:
        mutations must go through the array's methods."""
        out: list[WakeupRow | None] = []
        need, occ, sched = self._need, self._occupied, self._scheduled
        width, fmask = self._width, self._field_mask
        for i in range(self.n_entries):
            if not (occ >> i) & 1:
                out.append(None)
                continue
            field = (need >> (i * width)) & fmask
            out.append(
                WakeupRow(
                    resource_bits=field & _RES_MASK,
                    dep_bits=field >> NUM_FU_TYPES,
                    scheduled=bool((sched >> i) & 1),
                )
            )
        return out

    def insert(self, fu_type: FUType, dep_mask: int) -> int:
        """Allocate a row for an instruction needing ``fu_type`` and the
        results of the rows in ``dep_mask`` (bit i = needs row i's result;
        each must be occupied).  Returns the row index.

        A reference model: the register update unit's dispatch inlines the
        same row write (:meth:`RegisterUpdateUnit.dispatch_decoded`), and
        the tests build wake-up arrays with this method."""
        occ = self._occupied
        stray = dep_mask & ~occ
        if stray:
            row = (stray & -stray).bit_length() - 1
            raise SchedulerError(f"dependency on invalid row {row}")
        free = ~occ & self._all_rows
        if not free:
            raise SchedulerError("wake-up array is full")
        index = (free & -free).bit_length() - 1  # lowest free row
        field = FU_BIT[fu_type] | (dep_mask << NUM_FU_TYPES)
        self._need |= field << (index * self._width)
        self._occupied = occ | (1 << index)
        return index

    def remove(self, index: int) -> None:
        """Free a row and clear its result column everywhere (retire rule:
        dependents of a retired instruction must not wait for it, and new
        occupants of the row must not inherit stale dependences).  The row's
        field and its column go in one AND."""
        bit = 1 << index
        if not self._occupied & bit:
            raise SchedulerError(f"row {index} is not occupied")
        self._occupied &= ~bit
        self._scheduled &= ~bit
        self._need &= self._remove_masks[index]

    # -------------------------------------------------------------- request
    def requests_mask(self, resource_available: int, result_available: int) -> int:
        """n-bit mask of rows requesting execution this cycle (Fig. 6).

        ``resource_available`` is the 5-bit Eq. 1 availability bus;
        ``result_available`` the n-bit result-available bus.  A row
        requests when every needed column is available and it is not yet
        scheduled.  All rows are evaluated in one bitwise pass.
        """
        if resource_available < 0 or resource_available >= (1 << NUM_FU_TYPES):
            raise SchedulerError(
                f"resource availability bus out of range: {resource_available:#x}"
            )
        # replicate the concatenated availability buses into every field
        avail = resource_available | (
            (result_available & self._all_rows) << NUM_FU_TYPES
        )
        unmet = self._need & (self._lo_mask ^ (avail * self._row_ones))
        # guard-bit zero detection: subtracting 1 from (guard | field)
        # borrows the guard away exactly when the field is zero, and the
        # guard confines every borrow to its own field
        nonzero = (unmet | self._guards) - self._row_ones
        satisfied = ~nonzero & self._guards
        rows = self._mask_memo.get(satisfied)
        if rows is None:
            rows = 0
            step = self._width
            probe = 1 << (step - 1)  # guard position of row 0
            for i in range(self.n_entries):
                if satisfied & probe:
                    rows |= 1 << i
                probe <<= step
            self._mask_memo[satisfied] = rows
        mask = rows & self._occupied & ~self._scheduled
        if WakeupArray.crosscheck:
            ref = 0
            for i in self.requests_reference(resource_available, result_available):
                ref |= 1 << i
            if ref != mask:
                raise SchedulerError(
                    f"bit-packed wake-up kernel diverged: {mask:#x} != {ref:#x}"
                )
        return mask

    def requests(self, resource_available: int, result_available: int) -> list[int]:
        """Rows requesting execution this cycle, ascending row order."""
        mask = self.requests_mask(resource_available, result_available)
        rows = self._list_memo.get(mask)
        if rows is None:
            rows = tuple(i for i in range(self.n_entries) if (mask >> i) & 1)
            self._list_memo[mask] = rows
        return list(rows)

    def requests_reference(
        self, resource_available: int, result_available: int
    ) -> list[int]:
        """A reference model: the original per-row-loop request logic, kept
        as the executable specification the packed kernel is proven
        against."""
        out = []
        for i, row in enumerate(self.rows):
            if row is None or row.scheduled:
                continue
            if row.resource_bits & ~resource_available:
                continue  # required unit type not available
            if row.dep_bits & ~result_available:
                continue  # some producer's result not yet available
            out.append(i)
        return out

    def mark_scheduled(self, index: int) -> None:
        bit = 1 << index
        if not self._occupied & bit:
            raise SchedulerError(f"row {index} is not occupied")
        if self._scheduled & bit:
            raise SchedulerError(f"row {index} is already scheduled")
        self._scheduled |= bit

    def reschedule(self, index: int) -> None:
        """De-assert the scheduled bit (the Fig. 6 reschedule input)."""
        if not (self._occupied >> index) & 1:
            raise SchedulerError(f"row {index} is not occupied")
        self._scheduled &= ~(1 << index)

    # ------------------------------------------------------------ rendering
    def render(self, labels: dict[int, str] | None = None) -> str:
        """Render the array as the Fig. 5 matrix (for the F4-F6 artefact).

        Columns: the five execution-unit types, then one result column per
        row.  ``labels`` optionally names each occupied row.
        """
        labels = labels or {}
        type_heads = [t.short_name for t in FU_TYPES]
        entry_heads = [f"E{i + 1}" for i in range(self.n_entries)]
        name_w = max([len("entry")] + [len(v) for v in labels.values()]) + 2
        header = "".ljust(name_w) + " ".join(
            h.rjust(6) for h in type_heads
        ) + " | " + " ".join(h.rjust(3) for h in entry_heads)
        lines = [header]
        for i, row in enumerate(self.rows):
            name = labels.get(i, f"entry {i + 1}")
            if row is None:
                lines.append(name.ljust(name_w) + "(empty)")
                continue
            tbits = " ".join(
                ("1" if (row.resource_bits >> t.bit_index) & 1 else ".").rjust(6)
                for t in FU_TYPES
            )
            ebits = " ".join(
                ("1" if (row.dep_bits >> j) & 1 else ".").rjust(3)
                for j in range(self.n_entries)
            )
            lines.append(name.ljust(name_w) + tbits + " | " + ebits)
        return "\n".join(lines)
