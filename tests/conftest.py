"""Repo-wide test configuration: a deterministic hypothesis profile and
the shared selection-unit inputs.

Simulation-backed properties can be slow relative to hypothesis' default
deadline; the ``repro`` profile removes per-example deadlines (wall-clock
flakiness) while keeping example counts meaningful.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def catalogue_counts() -> list[tuple[int, ...]]:
    """Every configured-counts vector a catalogue run of a phased program
    passes through with the default parameters (the inputs the selection
    unit's equivalence checks are crossed with)."""
    from repro.core.baselines import policy_catalogue
    from repro.core.params import ProcessorParams
    from repro.workloads.phases import phased_program
    from repro.workloads.synthetic import FP_MIX, INT_MIX, MEM_MIX

    program = phased_program(
        [(INT_MIX, 12), (MEM_MIX, 12), (FP_MIX, 12)], body_len=16, seed=3
    )
    seen = set()

    class Counts:
        def on_stage(self, proc, stage):
            pass

        def on_cycle(self, proc, *args):
            seen.add(proc.fabric.counts_tuple())

    for factory in policy_catalogue().values():
        proc = factory(program, ProcessorParams())
        proc.observer = Counts()
        proc.run()
    assert len(seen) > 10  # the run really reconfigures
    return sorted(seen)
