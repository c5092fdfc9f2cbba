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


def timeline(selections: list[int], width: int = 72) -> str:
    """Compress the per-cycle selection trace into one glyph per bucket."""
    if not selections:
        return ""
    bucket = max(1, len(selections) // width)
    out = []
    for i in range(0, len(selections), bucket):
        window = selections[i : i + bucket]
        # show the most-steered-to candidate in the bucket ('.' = settled)
        steered = [s for s in window if s != 0]
        out.append(_GLYPH[max(set(steered), key=steered.count)] if steered else ".")
    return "".join(out)


def main() -> None:
    program = phased_program(PHASES, seed=3)
    print(f"workload: {len(program)} static instructions, phases "
          f"{' -> '.join(mix.name for mix, _ in PHASES)}\n")

    trace = SteeringTrace()
    result = steering_processor(program, PARAMS, observer=trace).run()

    print("steering timeline (one glyph per ~bucket of cycles):")
    print("  I=steer-to-integer  M=memory  F=floating  .=keep current")
    print(" ", timeline([t.selection for t in trace.entries]))
    print()
    print("partial reconfigurations (cycle: unit loaded @ slot):")
    for t in trace.entries:
        if t.load is not None:
            evicted = f" evicting {[e.short_name for e in t.load.evicted]}" if t.load.evicted else ""
            print(f"  cycle {t.cycle:5d}: {t.load.fu_type.short_name:6s} "
                  f"@ slot {t.load.head}{evicted}")
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
