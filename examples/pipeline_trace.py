#!/usr/bin/env python3
"""Cycle-by-cycle pipeline and fabric trace.

Runs a short mixed workload with an event recorder attached and prints
the fabric occupancy timeline: watch units being loaded into slots (``*``
while the configuration bus writes them), executing (lowercase) and
idling (uppercase), alongside fetch/dispatch/issue/retire counts per
cycle.

Run with::

    python examples/pipeline_trace.py
"""

from repro import PaperSteering, Processor, ProcessorParams, assemble
from repro.core.tracing import EventRecorder, render_fabric_timeline

PROGRAM = """
    .data
    xs:  .float 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5
    acc: .float 0.0
    .text
    main:   li   x1, 0
            li   x2, 32
            li   x5, 0
            flw  f1, acc(x0)
    loop:   flw  f2, xs(x1)
            fmul f3, f2, f2
            fadd f1, f1, f3
            lw   x4, xs(x1)
            xor  x5, x5, x4
            addi x1, x1, 4
            blt  x1, x2, loop
            fsw  f1, acc(x0)
            halt
"""


def main() -> None:
    program = assemble(PROGRAM)
    recorder = EventRecorder()
    proc = Processor(
        program,
        params=ProcessorParams(reconfig_latency=4),
        policy=PaperSteering(),
        observer=recorder,
    )
    result = proc.run()

    print("slot glyphs: A/M/L/F/D = IALU/IMDU/LSU/FPALU/FPMDU "
          "(lowercase = executing), * = reconfiguring, . = empty")
    print("columns: F)etched D)ispatched I)ssued R)etired, sel = steering pick\n")
    print(render_fabric_timeline(recorder.events, stride=2, max_rows=60))
    print()
    print(result.summary())
    print()
    acc = proc.dmem.peek_float(program.data_labels["acc"])
    print(f"result: sum of squares = {acc:.4f}")


if __name__ == "__main__":
    main()
