"""repro: configuration steering for a reconfigurable superscalar processor.

A complete reproduction of Veale, Antonio & Tull, *"Configuration Steering
for a Reconfigurable Superscalar Processor"* (IPDPS/RAW 2005): the
configuration-selection circuits (Figs. 2-3), the wake-up-array scheduler
(Figs. 4-6), the availability logic (Fig. 7 / Eq. 1), the partially
reconfigurable fabric, a cycle-level superscalar processor that executes a
small RISC ISA, and the evaluation harness that regenerates every table
and figure.

Quick start::

    from repro import assemble, steering_processor

    program = assemble('''
        li   x1, 100
    loop:
        addi x1, x1, -1
        bne  x1, x0, loop
        halt
    ''')
    result = steering_processor(program).run()
    print(result.summary())
"""

from repro.core import (
    DemandSteering,
    NoSteering,
    OracleSteering,
    PaperSteering,
    Processor,
    ProcessorParams,
    RandomSteering,
    SimulationResult,
    StaticConfiguration,
    fixed_superscalar,
    oracle_processor,
    policy_catalogue,
    steering_processor,
)
from repro.fabric import (
    Configuration,
    Fabric,
    PREDEFINED_CONFIGS,
    steering_table,
)
from repro.isa import FUType, Instruction, Opcode, Program, assemble, disassemble
from repro.steering import ConfigurationSelectionUnit

__version__ = "1.0.0"

__all__ = [
    "assemble",
    "disassemble",
    "Program",
    "Instruction",
    "Opcode",
    "FUType",
    "Configuration",
    "PREDEFINED_CONFIGS",
    "steering_table",
    "Fabric",
    "ConfigurationSelectionUnit",
    "Processor",
    "ProcessorParams",
    "SimulationResult",
    "PaperSteering",
    "NoSteering",
    "StaticConfiguration",
    "RandomSteering",
    "OracleSteering",
    "DemandSteering",
    "fixed_superscalar",
    "steering_processor",
    "oracle_processor",
    "policy_catalogue",
    "__version__",
]
