"""Run a test module's ``__main__`` in a fresh interpreter.

Some figures depend on what else the process holds (the shared decode
table of :func:`repro.isa.encoding.decode`); a test that counts them from
a known empty start runs its module with ``python -m`` and reads the JSON
line the module prints.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]


def fresh_json(module: str):
    """The JSON value ``python -m module`` prints, run from the repo root
    with this process's ``repro`` first on the path."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-m", module], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)
