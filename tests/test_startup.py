"""Package start-up: qcool sets OpenBLAS's thread timeout before NumPy
loads, so NumPy's idle BLAS workers do not spin on a second core."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcool

SRC = str(Path(qcool.__file__).resolve().parents[1])

# Records OPENBLAS_THREAD_TIMEOUT at the moment numpy is first imported,
# then imports qcool.cli and prints what it saw, and the value after.
WATCH_NUMPY = """
import json, os, sys

seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Watch())
import qcool.cli
print(json.dumps([seen, os.environ.get("OPENBLAS_THREAD_TIMEOUT")]))
"""

# Imports qcool.cli, then busy-loops for 150 ms and prints the process's
# CPU seconds (every thread) and wall seconds over the loop.
BUSY_AFTER_IMPORT = """
import resource, time
import qcool.cli

def cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime

cpu0, start = cpu(), time.perf_counter()
while time.perf_counter() - start < 0.15:
    pass
print(cpu() - cpu0, time.perf_counter() - start)
"""


def _run(code: str, preset: str | None = None) -> str:
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    # This process imported qcool, which set the variable; a child must
    # start without it unless a test presets it.
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("preset, want", [(None, "4"), ("20", "20")])
def test_thread_timeout_is_set_before_numpy_loads(preset, want):
    seen, after = json.loads(_run(WATCH_NUMPY, preset))
    assert seen == [want]
    assert after == want


def test_import_after_numpy_runs():
    out = _run("import numpy, os, qcool.cli; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])")
    assert out.split() == ["4"]


def test_no_second_core_burned_after_import():
    # A guard, not a reproducer: how much of a default worker's spin
    # (2**28 cycles from NumPy's import) falls after qcool's import
    # depends on how long that import takes on the host.
    cpu, wall = map(float, _run(BUSY_AFTER_IMPORT).split())
    assert cpu <= 1.2 * wall, f"{cpu:.3f} s CPU over {wall:.3f} s wall"
