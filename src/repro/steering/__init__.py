"""Configuration steering: the paper's primary contribution.

The configuration manager watches the instruction queue and steers the
reconfigurable fabric toward the best-matched of four candidate
configurations — the *current* configuration plus three predefined steering
configurations (Table 1).  It is built exactly as Fig. 2 specifies, in four
combinational stages:

1. **unit decoders** — one per queue entry, emitting a one-hot vector of
   the functional-unit type required;
2. **resource-requirement encoders** — population counters producing a
   3-bit required count per type;
3. **configuration-error-metric generators** — Fig. 3 barrel-shifter
   approximate dividers summed by a 3-bit five-operand adder;
4. **minimal-error selection** — picks the candidate with the smallest
   error, ties resolved toward the least reconfiguration (the current
   configuration always wins ties).

The stages are one gate netlist
(:mod:`repro.circuits.selection_netlist`);
:class:`~repro.steering.selection.ConfigurationSelectionUnit` evaluates it
from truth tables of its blocks, and :func:`~repro.steering.error_metric.exact_error`
is the exact-division reference metric.

The **configuration loader** (:mod:`repro.steering.loader`) then diffs the
chosen configuration against the resource-allocation vector and partially
reconfigures only the RFU slots that are not busy.  The configuration
manager itself is :class:`~repro.core.policies.PaperSteering`: the
selection unit, the loader it clocks with each cycle's selection, and the
steering statistics.
"""

from repro.steering.error_metric import exact_error
from repro.steering.loader import ConfigurationLoader, LoadPlan
from repro.steering.selection import ConfigurationSelectionUnit, SelectionResult

__all__ = [
    "exact_error",
    "ConfigurationSelectionUnit",
    "SelectionResult",
    "ConfigurationLoader",
    "LoadPlan",
]
