#!/usr/bin/env python3
"""Legacy binary compatibility: the paper's core motivation.

The processor executes unmodified machine code — no recompilation, no
hardware-extraction pass (the shortcoming the paper calls out in SPYDER
and PRISC).  This example assembles a program once, throws the *source*
away, and runs the raw 32-bit words on three differently configured
processors, disassembling them on the way in.

Run with::

    python examples/legacy_binary.py
"""

from repro import Opcode, Program, assemble, disassemble, steering_processor
from repro.core.baselines import fixed_superscalar
from repro.isa.encoding import decode

SOURCE = """
    .data
    xs:  .float 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
    acc: .float 0.0
    .text
    main:   li   x1, 0
            li   x2, 32
            flw  f1, acc(x0)
    loop:   flw  f2, xs(x1)
            fmul f3, f2, f2
            fadd f1, f1, f3
            addi x1, x1, 4
            blt  x1, x2, loop
            fsw  f1, acc(x0)
            halt
"""


def main() -> None:
    # compile once, keep only the binary image + initial data
    compiled = assemble(SOURCE)
    binary_words = compiled.words
    data_image = bytes(compiled.data)

    print(f"legacy binary: {len(binary_words)} words")
    for pc, word in enumerate(binary_words):
        print(f"  {pc:3d}: {word:#010x}   {disassemble([word])[0]}")
    print()

    # reconstruct a Program purely from the binary (what a reconfigurable
    # processor booting legacy code would see)
    legacy = Program(
        instructions=[decode(w) for w in binary_words],
        labels={"main": 0},
        data=bytearray(data_image),
        data_labels=dict(compiled.data_labels),
    )

    for make, label in ((steering_processor, "steering"), (fixed_superscalar, "ffu-only")):
        proc = make(legacy)
        result = proc.run()
        acc = proc.dmem.peek_float(legacy.data_labels["acc"])
        print(f"{label:10s}: sum of squares = {acc}  "
              f"(IPC {result.ipc:.3f}, {result.cycles} cycles)")
        assert acc == sum(float(v) ** 2 for v in range(1, 9))

    print("\nSame binary, same architectural result, different hardware "
          "underneath - binary compatibility holds.")


if __name__ == "__main__":
    main()
