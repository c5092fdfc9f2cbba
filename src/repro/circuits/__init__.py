"""Gate-level hardware of the configuration-selection unit.

The configuration manager of the paper is specified as a concrete circuit
(Figs. 2 and 3): one-hot unit decoders, population-count requirement
encoders, barrel-shifter error-metric generators summed by a 3-bit
five-operand adder, and a minimal-error comparator tree.  This package
builds that circuit as one netlist of 2-input gates:
:mod:`repro.circuits.netlist` holds the gate graph, its bit-sliced
evaluator and the generic blocks, :mod:`repro.circuits.selection_netlist`
the four stages.  The simulator's selection tables are truth tables of
its blocks, and its gate count and depth back the paper's "fast and
efficient" claim (E-COST).
"""
