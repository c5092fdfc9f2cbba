"""Verification subsystem: golden-trace corpus + differential fuzzing.

Three parts, layered on the deterministic batch engine:

:mod:`repro.verify.goldens`
    A committed corpus of canonical-JSON ``SimulationResult`` records per
    (policy x workload) cell with a strict structural-diff comparator and
    an explicit spec version (``repro goldens check|update|diff``).
:mod:`repro.verify.generator`
    Seeded, valid-by-construction random programs over the ISA — register
    dataflow respected, loops bounded by construction, tunable per-unit
    pressure and flush density.
:mod:`repro.verify.fuzz`
    The differential fuzzer (``repro fuzz``): every catalogue policy runs
    each generated program through ``run_many`` and must agree on the
    committed architectural outcome; failures are shrunk
    (:mod:`repro.verify.shrink`) to a minimal reproducer.

See ``docs/verification.md`` for the corpus discipline and the invariant
catalogue.
"""

from repro.verify.generator import GeneratorConfig, generate_program, generate_source
from repro.verify.goldens import check_corpus, diff_corpus, update_corpus
from repro.verify.invariants import Violation
from repro.verify.shrink import shrink_source

__all__ = [
    "GeneratorConfig",
    "generate_program",
    "generate_source",
    "check_corpus",
    "diff_corpus",
    "update_corpus",
    "Violation",
    "shrink_source",
]
