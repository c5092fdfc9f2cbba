"""Static checks of the keep list in benchmarks/product_paths.py.

The drive itself (about half a minute, forking a server) is a CI lint
step; these checks only parse the tree, so a rename or a deletion that
leaves a stale keep entry fails here first.
"""

import importlib.util
import pathlib
import sys

_MODULE_PATH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "product_paths.py"
)


def _load():
    spec = importlib.util.spec_from_file_location("product_paths", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_keep_entry_names_a_function_with_a_reason():
    mod = _load()
    known = mod.defined()
    missing = sorted(name for name in mod.KEEP if name not in known)
    assert not missing, f"keep entries that name no function: {missing}"
    silent = sorted(name for name, why in mod.KEEP.items() if not why.strip())
    assert not silent, f"keep entries without a reason: {silent}"


def test_the_drive_covers_every_package_and_the_cli():
    mod = _load()
    packages = {
        p.name for p in mod.PACKAGE_ROOT.iterdir() if (p / "__init__.py").is_file()
    }
    assert set(mod.PACKAGES) == packages | {"cli.py"}
    assert {"serving", "telemetry", "evaluation", "verify", "analysis"} <= packages
