#!/usr/bin/env python3
"""Phase-adaptive steering: watch the fabric reconfigure as a workload
moves through integer, memory and floating-point phases.

Prints an ASCII timeline of the selection-unit decisions and every partial
reconfiguration the loader starts, then compares steering against each
static configuration on the same program.

Run with::

    python examples/phased_workload.py
"""

from repro import PREDEFINED_CONFIGS, ProcessorParams, steering_processor
from repro.core.baselines import fixed_superscalar, static_processor
from repro.core.tracing import SteeringTrace
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX

PARAMS = ProcessorParams(reconfig_latency=8)
PHASES = [(INT_MIX, 60), (MEM_MIX, 60), (FP_MIX, 60)]

_GLYPH = {0: ".", 1: "I", 2: "M", 3: "F"}  # current / integer / memory / floating


def timeline(runs: list[list[int]], width: int = 72) -> str:
    """Compress the selection runs ``[selection, first_cycle, length]``
    into one glyph per bucket of cycles."""
    cycles = sum(length for _, _, length in runs)
    if not cycles:
        return ""
    bucket = max(1, cycles // width)
    out = []
    for start in range(0, cycles, bucket):
        # cycles each candidate held in the bucket
        held: dict[int, int] = {}
        for selection, first, length in runs:
            overlap = min(first + length, start + bucket) - max(first, start)
            if selection != 0 and overlap > 0:
                held[selection] = held.get(selection, 0) + overlap
        # show the most-steered-to candidate in the bucket ('.' = settled)
        out.append(_GLYPH[max(held, key=held.get)] if held else ".")
    return "".join(out)


def main() -> None:
    program = phased_program(PHASES, seed=3)
    print(f"workload: {len(program)} static instructions, phases "
          f"{' -> '.join(mix.name for mix, _ in PHASES)}\n")

    trace = SteeringTrace()
    proc = steering_processor(program, PARAMS, observer=trace)
    result = proc.run()

    print(f"steering timeline ({len(trace.runs)} selection runs, "
          "one glyph per ~bucket of cycles):")
    print("  I=steer-to-integer  M=memory  F=floating  .=keep current")
    print(" ", timeline(trace.runs))
    print()
    print("partial reconfigurations (in order: unit loaded @ slot):")
    for n, load in enumerate(proc.policy.loader.history, 1):
        evicted = f" evicting {[e.short_name for e in load.evicted]}" if load.evicted else ""
        print(f"  #{n:3d}: {load.fu_type.short_name:6s} @ slot {load.head}{evicted}")
    print()

    rows = [("steering", result.ipc)]
    rows.append(("ffu-only", fixed_superscalar(program, PARAMS).run().ipc))
    for cfg in PREDEFINED_CONFIGS:
        ipc = static_processor(program, cfg, PARAMS).run().ipc
        rows.append((f"static-{cfg.name}", ipc))
    print("IPC on the full phased workload:")
    for name, ipc in sorted(rows, key=lambda r: -r[1]):
        bar = "#" * int(ipc * 40)
        print(f"  {name:16s} {ipc:.3f}  {bar}")


if __name__ == "__main__":
    main()
