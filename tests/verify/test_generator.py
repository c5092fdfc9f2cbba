"""Generator properties over 200 seeds: every program is valid by
construction — assembles, encodes/decodes losslessly, and terminates
under the functional reference."""

import pytest

from repro.core.reference import run_reference
from repro.errors import WorkloadError
from repro.isa.assembler import assemble
from repro.isa.disassembler import decode, format_instruction
from repro.verify.generator import (
    GeneratorConfig,
    generate_program,
    generate_source,
)

SEEDS = range(200)

#: one shared sweep — assembling 200 programs once keeps the suite fast.
_PROGRAMS = {seed: generate_program(seed) for seed in SEEDS}


def test_all_seeds_assemble_nonempty():
    for seed, program in _PROGRAMS.items():
        assert len(program.instructions) > 0, seed


def test_determinism_same_seed_same_source():
    for seed in (0, 7, 42, 199):
        assert generate_source(seed) == generate_source(seed)


def test_different_seeds_differ():
    sources = {generate_source(seed) for seed in SEEDS}
    assert len(sources) > 150  # near-universal uniqueness


def test_encode_decode_round_trip():
    for seed, program in _PROGRAMS.items():
        for word, instr in zip(program.words, program.instructions):
            decoded = decode(word)
            assert format_instruction(decoded) == format_instruction(instr), (
                seed,
                word,
            )


def test_source_reassembles_to_identical_binary():
    for seed in (0, 5, 99):
        source = generate_source(seed)
        assert generate_program(seed).words == assemble(source).words


def test_all_seeds_terminate_under_reference():
    for seed, program in _PROGRAMS.items():
        ref = run_reference(program, max_instructions=500_000)
        assert ref.halted, seed
        assert ref.executed > 0, seed


def test_flush_density_zero_emits_no_forward_branches():
    source = generate_source(11, GeneratorConfig(flush_density=0.0))
    assert "g_sk" not in source


def test_flush_density_one_emits_forward_branches():
    source = generate_source(11, GeneratorConfig(flush_density=1.0))
    assert "g_sk" in source


def test_blocks_knob_controls_loop_count():
    for blocks in (1, 4, 8):
        source = generate_source(2, GeneratorConfig(blocks=blocks))
        assert source.count("_loop:") == blocks


def test_invalid_configs_rejected():
    with pytest.raises(WorkloadError):
        GeneratorConfig(blocks=0)
    with pytest.raises(WorkloadError):
        GeneratorConfig(blocks=9)
    with pytest.raises(WorkloadError):
        GeneratorConfig(flush_density=1.5)
    with pytest.raises(WorkloadError):
        GeneratorConfig(body_len=0)


def test_dynamic_length_bounded():
    config = GeneratorConfig(blocks=2, body_len=8, max_iterations=4)
    for seed in (1, 2, 3):
        program = generate_program(seed, config)
        ref = run_reference(program, max_instructions=500_000)
        # static prologue + blocks * trips * (body + branch groups) is
        # comfortably under this construction-derived ceiling
        assert ref.executed < 2 * len(program.instructions) * 4 + 100
