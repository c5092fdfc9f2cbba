"""Python-level calls per simulated cycle stay within a budget.

The cycle loop's cost is dominated by interpreter work, and the number of
Python function calls per cycle is its most stable proxy: counting
``call`` events with :func:`sys.setprofile` is deterministic, where timing
on a shared host is not.  Each run is measured warm (a first run of the
same program decodes it, fills the instructions' cached properties and
the selection memo), so the figure does not depend on test order.

Calls per cycle on ``checksum`` (default size), CPython 3.11:

=========  ======  =====  =====
policy     lean    lean   bound
           before  after  after
=========  ======  =====  =====
ffu-only   66.25   33.13  26.27
steering   99.94   49.27  40.43
=========  ======  =====  =====

"Lean before" is the loop with enum members loaded through their classes,
``if op is Opcode.X`` semantics chains, dataclass records and the
accessor chains; "lean after" is the lean per-instruction path.  "Bound
after" adds producer-bound entries: the rename map holds in-flight
producer entries, so dispatch builds no ``SourceBinding`` and
``RuuEntry`` has no ``__post_init__``; operands come from the producer
or the register file without a ``RegisterFile.read`` call; the unit
busy/idle transitions, the wake-up row-and-column clear and the stall
counts are made inline.  Each budget is the latest figure plus 10%: a
change that adds per-cycle calls must either pay for itself elsewhere or
raise the budget here, with the reason.
"""

import sys

import pytest

from repro.core.baselines import fixed_superscalar, steering_processor
from repro.workloads.kernels import checksum

#: policy -> (factory, calls-per-cycle budget).
BUDGETS = {
    "ffu-only": (fixed_superscalar, 26.27 * 1.10),
    "steering": (steering_processor, 40.43 * 1.10),
}


def calls_per_cycle(factory) -> float:
    program = checksum().program
    factory(program).run()  # warm-up: decode, instruction caches, memo
    proc = factory(program)
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


@pytest.mark.parametrize("policy", sorted(BUDGETS))
def test_calls_per_cycle_within_budget(policy):
    factory, budget = BUDGETS[policy]
    measured = calls_per_cycle(factory)
    assert measured <= budget, (
        f"{policy}: {measured:.2f} Python calls per simulated cycle, "
        f"budget {budget:.2f}"
    )
