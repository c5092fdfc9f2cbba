"""The reconfigurable fabric: FFUs, RFU slots and partial reconfiguration.

This is the substrate the configuration manager steers.  It models:

* a bank of five **fixed functional units** (one per type, Table 1) that
  guarantee every instruction can eventually execute;
* an array of eight **reconfigurable slots** whose contents change at run
  time via *partial reconfiguration* — each slot can be reloaded
  independently while the rest of the fabric keeps executing;
* the **resource-allocation vector** (Table 2 encodings, SPAN continuation
  slots for multi-slot units);
* the **availability circuit** of Eq. 1 / Fig. 7 that tells the wake-up
  array whether a unit of a given type is both configured and idle.

:class:`Fabric` is the one owner of the per-type unit state the
scheduler and the loader read every cycle (units per type, configured
counts, reconfigurable units loaded or in flight, idle counts, the Eq. 1
bus): it updates that state at each issue and release, and re-indexes it
at the only two structure changes, which go through it — a load starting
(:meth:`Fabric.begin_reconfigure`) and a load completing
(:meth:`Fabric.tick`).
"""

from repro.fabric.allocation import (
    EMPTY_ENCODING,
    SPAN_ENCODING,
    AllocationVector,
    encoding_name,
)
from repro.fabric.availability import available, availability_report
from repro.fabric.configuration import (
    FFU_COUNTS,
    NUM_RFU_SLOTS,
    PREDEFINED_CONFIGS,
    Configuration,
    steering_table,
)
from repro.fabric.fabric import Fabric
from repro.fabric.slots import RfuSlotArray, Slot
from repro.fabric.units import FfuBank, FunctionalUnit

__all__ = [
    "AllocationVector",
    "EMPTY_ENCODING",
    "SPAN_ENCODING",
    "encoding_name",
    "available",
    "availability_report",
    "Configuration",
    "FFU_COUNTS",
    "NUM_RFU_SLOTS",
    "PREDEFINED_CONFIGS",
    "steering_table",
    "Fabric",
    "RfuSlotArray",
    "Slot",
    "FunctionalUnit",
    "FfuBank",
]
