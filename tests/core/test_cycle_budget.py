"""Python-level calls per simulated cycle stay within a budget.

The cycle loop's cost is dominated by interpreter work, and the number of
Python function calls per cycle is its most stable proxy: counting
``call`` events with :func:`sys.setprofile` is deterministic, where timing
on a shared host is not.  Each run is measured warm (the program was run
once before and is kept alive, so its decoded instructions, which every
run of it shares, have their cached properties filled), so the figure
does not depend on test order.

Calls per cycle on ``checksum`` (default size), CPython 3.11, at wake-up
windows of 7 and 11 entries (the factories size the selection window to
match):

===============  ======  =====  =============  =============  =============  =============  =============  =============  =============
policy           lean    lean   bound          event          event          one pass       one call       one table  one manager
                 before  after  after          before         after          after          after          after  after
===============  ======  =====  =============  =============  =============  =============  =============  =============  =============
ffu-only         66.25   33.13  26.27          26.27 / 26.28  26.27 / 26.28  18.55 / 18.56  14.67 / 14.67  14.67 / 14.67  14.67 / 14.67
steering         99.94   49.27  40.43          40.43 / 40.43  37.03 / 36.89  27.20 / 27.07  22.11 / 21.98  21.53 / 21.55  20.53 / 20.55
random                                         37.47 / 37.45  36.50 / 36.47  26.59 / 26.56  21.47 / 21.44  21.47 / 21.44  21.47 / 21.44
oracle                                         41.56 / 41.56  36.70 / 36.70  26.87 / 26.87  21.78 / 21.78  21.78 / 21.78  21.78 / 21.78
demand                                         68.05 / 83.42  42.33 / 42.69  32.38 / 32.75  27.23 / 27.59  27.23 / 27.59  27.23 / 27.59
static-integer                                 32.87 / 32.86  32.77 / 32.76  22.94 / 22.94  17.85 / 17.85  17.85 / 17.85  17.85 / 17.85
static-memory                                  33.14 / 33.13  33.04 / 33.03  23.15 / 23.15  18.03 / 18.03  18.03 / 18.03  18.03 / 18.03
static-floating                                32.48 / 32.48  32.38 / 32.38  22.61 / 22.61  17.56 / 17.56  17.56 / 17.56  17.56 / 17.56
===============  ======  =====  =============  =============  =============  =============  =============  =============  =============

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
resolutions)`` without building a report object.  "One table after"
keeps every selection in one table per run, keyed by the window's
demand and the configured counts (the selection unit is stateless), so
the unit evaluates each distinct key once instead of again after every
change of the configured counts; only ``steering`` moves.  "One
manager after" folds the configuration manager into the steering policy:
``PaperSteering.cycle`` steers its loader and counts the selection
itself, without a call into a separate manager object; again only
``steering`` moves.
Each budget is the latest figure plus 10%: a change that adds per-cycle
calls must either pay for itself elsewhere or raise the budget here, with
the reason.

The same runs measure the hot set.  Every ``repro`` function the loop
calls on at least :data:`HOT_RATE` of a run's cycles must be listed in
``[hotzones]`` of ``analysis/layers.toml``, where the ``repro lint`` HOT
rules police per-cycle work that adds no call.  The check also profiles
``phased:1``, whose loads, stores and FP work the loop never meets on
``checksum``; those runs carry no budget.  A function that crosses the
rate unlisted fails the check with its name, rate and run: list it, then
mend or accept (``# repro: allow[RULE] -- reason``) what the lint finds
in it.  Comprehension and lambda code objects are skipped: their bodies
belong to the enclosing function, or to a module-level table.
"""

import functools
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.analysis.config import DEFAULT_CONFIG_PATH, load_config
from repro.core.baselines import policy_catalogue
from repro.core.params import ProcessorParams
from repro.core.processor import Processor
from repro.workloads import resolve_program

REPO = Path(__file__).resolve().parents[2]
#: policy -> calls-per-cycle budget at windows 7 and 11.
BUDGETS = {
    "ffu-only": (14.67 * 1.10, 14.67 * 1.10),
    "steering": (20.53 * 1.10, 20.55 * 1.10),
    "random": (21.47 * 1.10, 21.44 * 1.10),
    "oracle": (21.78 * 1.10, 21.78 * 1.10),
    "demand": (27.23 * 1.10, 27.59 * 1.10),
    "static-integer": (17.85 * 1.10, 17.85 * 1.10),
    "static-memory": (18.03 * 1.10, 18.03 * 1.10),
    "static-floating": (17.56 * 1.10, 17.56 * 1.10),
}
WINDOWS = (7, 11)
#: the profiled programs: the budgets are ``checksum`` figures.
PROGRAMS = ("checksum", "phased:1")
#: The share of a run's cycles at which a function is per-cycle code and
#: must be listed in ``[hotzones]``.  The loop's per-event paths run above
#: it on these runs: a reconfiguration (1.8% of cycles), an adopted
#: synthesis (6.6%), a new (demand, counts) selection key (at most 2.6%);
#: once-per-run code and mispredict repair run below 0.2%, and an
#: eviction (``RfuSlotArray._remove_unit``) at 0.95%.
HOT_RATE = 0.01

#: where ``repro`` code objects live: ``<this prefix>repro/...``.
_SRC = str(Path(repro.__file__).resolve().parents[1]) + os.sep


@functools.cache
def warm_program(target: str):
    """The target's program, run once and kept alive: its decoded
    instructions, which every later run of it shares, have their cached
    properties filled."""
    program = resolve_program(target)
    policy_catalogue()["ffu-only"](program).run()
    return program


@functools.cache
def profile(policy: str, window: int, target: str) -> tuple[float, dict]:
    """One warm run under :func:`sys.setprofile`: its calls per cycle,
    and ``{code object: share of cycles}`` for every repro function
    called on at least :data:`HOT_RATE` of them."""
    proc = policy_catalogue()[policy](
        warm_program(target), ProcessorParams(window_size=window)
    )
    step = Processor.step.__code__
    calls = 0
    this_cycle: set = set()  # the code objects called in the current cycle
    cycles_of: Counter = Counter()  # code -> how many cycles called it

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            code = frame.f_code
            if code is step:
                cycles_of.update(this_cycle)
                this_cycle.clear()
            this_cycle.add(code)

    sys.setprofile(count)
    try:
        result = proc.run()
    finally:
        sys.setprofile(None)
    cycles_of.update(this_cycle)
    assert result.halted
    rates = {
        code: n / result.cycles
        for code, n in cycles_of.items()
        if n >= HOT_RATE * result.cycles
        and code.co_filename.startswith(_SRC)
        and not code.co_name.startswith("<")
    }
    return calls / result.cycles, rates


def listed_name(code) -> str:
    """``repro/x.py::Qual.name``, as ``[hotzones]`` lists a function."""
    path = code.co_filename[len(_SRC):].replace(os.sep, "/")
    return f"{path}::{code.co_qualname.replace('.<locals>', '')}"


def test_every_catalogue_policy_has_a_budget():
    assert sorted(BUDGETS) == sorted(policy_catalogue())


@pytest.mark.parametrize("policy", sorted(BUDGETS))
def test_calls_per_cycle_within_budget(policy):
    for window, budget in zip(WINDOWS, BUDGETS[policy]):
        measured, _ = profile(policy, window, "checksum")
        assert measured <= budget, (
            f"{policy} at window {window}: {measured:.2f} Python calls per "
            f"simulated cycle, budget {budget:.2f}"
        )


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="code objects name their class from 3.11"
)
@pytest.mark.parametrize("policy", sorted(BUDGETS))
def test_every_hot_function_is_listed(policy):
    config = load_config(REPO / DEFAULT_CONFIG_PATH)
    listed = {
        f"{path}::{name}"
        for path, names in config.hotzones.items()
        for name in names
    }
    missing = [
        f"  {name}: {rate:.1%} of cycles ({policy}, window {window}, {target})"
        for target in PROGRAMS
        for window in WINDOWS
        for name, rate in sorted(
            (listed_name(code), rate)
            for code, rate in profile(policy, window, target)[1].items()
        )
        if name not in listed
    ]
    assert not missing, (
        f"called on at least {HOT_RATE:.0%} of a run's cycles but not "
        f"listed in [hotzones] of {DEFAULT_CONFIG_PATH}:\n" + "\n".join(missing)
    )
