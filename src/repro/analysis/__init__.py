"""Static analysis for the simulator's own invariants (``repro lint``).

The simulator is fast, deterministic and concurrently served, and the
goldens, the tests and the per-cycle call budget keep most of that true.
This package checks the rest: per-cycle work that adds no Python call,
environment reads in the core model, SQLite and module state touched
outside their locks, and import edges against the layer DAG.  It is the
codebase's counterpart of the paper's configuration-error metric: a
*cheap checker* that re-scores the whole tree on every run.

Layout:

* :mod:`repro.analysis.findings` — the :class:`Finding` record;
* :mod:`repro.analysis.config` — the checked-in ``analysis/layers.toml``
  table (import DAG, the measured hot-function list, rule scopes);
* :mod:`repro.analysis.rules` — the rule registry, the per-file
  :class:`~repro.analysis.rules.FileContext` and the five families
  (hot-path ``HOT``, determinism ``DET``, concurrency ``CON``, layering
  ``LAY``, observability ``OBS``);
* :mod:`repro.analysis.suppressions` — inline ``# repro: allow[RULE]``
  suppressions;
* :mod:`repro.analysis.engine` — one uncached pass over the tree that
  reads, parses and tokenizes each file once;
* :mod:`repro.analysis.report` — human-readable and JSON reporters;
* :mod:`repro.analysis.cli` — the ``repro lint`` subcommand.

The engine is stdlib-only (:mod:`ast` + :mod:`tokenize`), matching the
repository rule that the core tree never grows third-party dependencies.
"""

from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.engine import AnalysisEngine
from repro.analysis.findings import Finding
from repro.analysis.rules import RULE_REGISTRY, all_rules

__all__ = [
    "AnalysisConfig",
    "AnalysisEngine",
    "Finding",
    "RULE_REGISTRY",
    "all_rules",
    "load_config",
]
