"""Python-level calls per simulated cycle stay within a budget.

The cycle loop's cost is dominated by interpreter work, and the number of
Python function calls per cycle is its most stable proxy: counting
``call`` events with :func:`sys.setprofile` is deterministic, where timing
on a shared host is not.  Each run is measured warm (a first run of the
same program decodes it and fills the instructions' cached properties),
so the figure does not depend on test order.

Calls per cycle on ``checksum`` (default size), CPython 3.11, at wake-up
windows of 7 and 11 entries (the factories size the selection window to
match):

===============  ======  =====  =============  =============  =============  =============  =============
policy           lean    lean   bound          event          event          one pass       one call
                 before  after  after          before         after          after          after
===============  ======  =====  =============  =============  =============  =============  =============
ffu-only         66.25   33.13  26.27          26.27 / 26.28  26.27 / 26.28  18.55 / 18.56  14.67 / 14.67
steering         99.94   49.27  40.43          40.43 / 40.43  37.03 / 36.89  27.20 / 27.07  22.11 / 21.98
random                                         37.47 / 37.45  36.50 / 36.47  26.59 / 26.56  21.47 / 21.44
oracle                                         41.56 / 41.56  36.70 / 36.70  26.87 / 26.87  21.78 / 21.78
demand                                         68.05 / 83.42  42.33 / 42.69  32.38 / 32.75  27.23 / 27.59
static-integer                                 32.87 / 32.86  32.77 / 32.76  22.94 / 22.94  17.85 / 17.85
static-memory                                  33.14 / 33.13  33.04 / 33.03  23.15 / 23.15  18.03 / 18.03
static-floating                                32.48 / 32.48  32.38 / 32.38  22.61 / 22.61  17.56 / 17.56
===============  ======  =====  =============  =============  =============  =============  =============

"Lean before" is the loop with enum members loaded through their classes,
``if op is Opcode.X`` semantics chains, dataclass records and the
accessor chains; "lean after" is the lean per-instruction path.  "Bound
after" adds producer-bound entries: the rename map holds in-flight
producer entries, so dispatch builds no ``SourceBinding`` and
``RuuEntry`` has no ``__post_init__``; operands come from the producer
or the register file without a ``RegisterFile.read`` call; the unit
busy/idle transitions, the wake-up row-and-column clear and the stall
counts are made inline.  Those three columns are at window 7.  "Event
before" is the same loop at both windows; "event after" steers by event:
the policies read the RUU's packed per-type demand of the waiting
entries instead of rebuilding and decoding the ready queue, selection is
a table lookup memoised per unit, the demand synthesizer skips its fill
when an error bound rules a retarget out, the oracle memoises its choice
and the loader does not search a blocked placement again until its
inputs move.  "One pass after" makes each per-instruction stage one
pass: the issue step executes and files each grant itself (operands read
inline, an ALU instruction through the handler bound at decode, the
scheduled bit set inline), the fabric flips a unit's busy state and
updates the availability cache directly (no unit-listener calls), retire
commits without a helper and dispatch pops the decode buffer directly.
"One call after" makes each back-end stage one call per cycle: one RUU
call dispatches the whole decode group (producers bound and wake-up
rows written inline), retire frees the wake-up row and writes the
register file inline and counts the retirements per type, the issue
step evaluates the wake-up kernel once and returns ``(issued,
resolutions)`` without building a report object.
Each budget is the latest figure plus 10%: a change that adds per-cycle
calls must either pay for itself elsewhere or raise the budget here, with
the reason.
"""

import sys

import pytest

from repro.core.baselines import policy_catalogue
from repro.core.params import ProcessorParams
from repro.workloads.kernels import checksum

#: policy -> calls-per-cycle budget at windows 7 and 11.
BUDGETS = {
    "ffu-only": (14.67 * 1.10, 14.67 * 1.10),
    "steering": (22.11 * 1.10, 21.98 * 1.10),
    "random": (21.47 * 1.10, 21.44 * 1.10),
    "oracle": (21.78 * 1.10, 21.78 * 1.10),
    "demand": (27.23 * 1.10, 27.59 * 1.10),
    "static-integer": (17.85 * 1.10, 17.85 * 1.10),
    "static-memory": (18.03 * 1.10, 18.03 * 1.10),
    "static-floating": (17.56 * 1.10, 17.56 * 1.10),
}
WINDOWS = (7, 11)


def calls_per_cycle(factory, params=None) -> float:
    program = checksum().program
    factory(program, params).run()  # warm-up: decode, instruction caches
    proc = factory(program, params)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = proc.run()
    finally:
        sys.setprofile(None)
    assert result.halted
    return calls / result.cycles


def test_every_catalogue_policy_has_a_budget():
    assert sorted(BUDGETS) == sorted(policy_catalogue())


@pytest.mark.parametrize("policy", sorted(BUDGETS))
def test_calls_per_cycle_within_budget(policy):
    factory = policy_catalogue()[policy]
    for window, budget in zip(WINDOWS, BUDGETS[policy]):
        measured = calls_per_cycle(factory, ProcessorParams(window_size=window))
        assert measured <= budget, (
            f"{policy} at window {window}: {measured:.2f} Python calls per "
            f"simulated cycle, budget {budget:.2f}"
        )
