"""Instruction-deletion shrinker: minimal, still-failing, always valid."""

import pytest

from repro.core.reference import run_reference
from repro.errors import AssemblerError, SimulationError
from repro.isa.assembler import assemble
from repro.isa.disassembler import format_instruction
from repro.verify.generator import GeneratorConfig, generate_source
from repro.verify.shrink import shrink_source


def _has_add(program) -> bool:
    return any(
        format_instruction(i).startswith("add ") for i in program.instructions
    )


def test_shrinks_around_the_implicated_instructions():
    # predicate: "fails" while the program still contains a plain add —
    # shrinking must strip most of everything else and stay assemblable
    source = generate_source(4, GeneratorConfig(blocks=2, body_len=12))
    original_count = len(assemble(source).instructions)
    outcome = shrink_source(source, _has_add)
    assert _has_add(assemble(outcome.source))
    assert outcome.removed > 0
    assert outcome.instructions < original_count


def test_shrunk_program_still_terminates():
    source = generate_source(9)

    def still_fails(program):
        return run_reference(program, max_instructions=500_000).executed > 10

    outcome = shrink_source(source, still_fails)
    ref = run_reference(assemble(outcome.source), max_instructions=500_000)
    assert ref.halted


def test_never_reproducing_predicate_returns_original():
    source = generate_source(1)
    outcome = shrink_source(source, lambda program: False)
    assert outcome.removed == 0


def test_predicate_exception_counts_as_not_reproducing():
    source = generate_source(2)
    calls = {"n": 0}

    def flaky(program):
        calls["n"] += 1
        raise SimulationError("budget exceeded")

    outcome = shrink_source(source, flaky)
    assert calls["n"] > 0
    assert outcome.removed == 0


def test_attempt_budget_respected():
    source = generate_source(3, GeneratorConfig(blocks=4, body_len=20))
    outcome = shrink_source(source, lambda program: True, max_attempts=10)
    assert outcome.attempts <= 10


def test_halt_and_labels_never_deleted():
    source = generate_source(6, GeneratorConfig(flush_density=0.5))
    outcome = shrink_source(source, lambda program: True)
    assert "halt" in outcome.source
    # the aggressive always-fails predicate strips every deletable line;
    # what remains must still assemble (labels/directives intact)
    assemble(outcome.source)


@pytest.mark.parametrize("directive", [".space -1", ".float 1e39"])
def test_candidate_with_an_unfit_data_value_is_skipped(directive):
    # every candidate keeps the data line, so none assembles: the shrink
    # evaluates none of them and the refusal surfaces with its line
    source = (
        f".data\nbuf: {directive}\n.text\n"
        "addi x1, x0, 1\naddi x2, x0, 2\nadd x3, x1, x2\nhalt\n"
    )
    calls = {"n": 0}

    def still_fails(program):
        calls["n"] += 1
        return True

    with pytest.raises(AssemblerError) as info:
        shrink_source(source, still_fails)
    assert info.value.line == 2
    assert calls["n"] == 0
