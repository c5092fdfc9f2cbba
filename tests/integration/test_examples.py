"""Smoke tests for the shipped examples.

Every example must at least import cleanly (its module-level programs
assemble); the fast ones are executed end-to-end with their assertions.
"""

import importlib.util
import pathlib
import sys

import pytest

_EXAMPLES = sorted(
    (pathlib.Path(__file__).parents[2] / "examples").glob("*.py")
)


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", _EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    module = _load(path)
    assert hasattr(module, "main")


@pytest.mark.parametrize(
    "stem", ["quickstart", "legacy_binary", "pipeline_trace", "phased_workload"]
)
def test_fast_examples_run(stem, capsys):
    path = next(p for p in _EXAMPLES if p.stem == stem)
    module = _load(path)
    module.main()  # each example asserts its own architectural results
    out = capsys.readouterr().out
    assert out.strip()
