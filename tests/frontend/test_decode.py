"""Tests for the decode stage buffer."""

import pytest

from repro.errors import SimulationError
from repro.fabric.fabric import Fabric
from repro.frontend.decode import DecodeStage
from repro.frontend.fetch import FetchedInstruction
from repro.frontend.memory import DataMemory
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.sched.ruu import RegisterUpdateUnit


def _fi(pc):
    return FetchedInstruction(pc=pc, instruction=Instruction(Opcode.ADD), predicted_next=pc + 1)


class TestDecodeStage:
    def test_capacity_enforced(self):
        d = DecodeStage(width=4, capacity=2)
        assert d.can_accept(2) and not d.can_accept(3)
        with pytest.raises(SimulationError, match="overflow"):
            d.push([_fi(i) for i in range(3)])

    def test_free_space(self):
        d = DecodeStage(width=4, capacity=8)
        d.push([_fi(0)])
        assert d.free_space == 7
        assert len(d) == 1

    def test_flush(self):
        d = DecodeStage()
        d.push([_fi(0), _fi(1)])
        assert d.flush() == 2
        assert len(d) == 0

    def test_decoded_counter(self):
        """The dispatch stage counts what it drains from the buffer."""
        d = DecodeStage(width=4)
        d.push([_fi(0), _fi(1)])
        ruu = RegisterUpdateUnit(Fabric(reconfig_latency=1), DataMemory(size=64))
        assert ruu.dispatch_decoded(d) == 2
        assert d.decoded == 2 and len(d) == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            DecodeStage(width=0)
        with pytest.raises(SimulationError):
            DecodeStage(capacity=0)
