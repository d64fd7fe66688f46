"""Smoke tests of the sweep scripts under ``scripts/``: each runs as its own
process on a small range and must report success on every line.

``scripts/kernel_crossover.py`` is left out: it times kernels for minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "subspace_census.py": (["--max-n", "3", "-p", "3"], "matches formula"),
}


@pytest.mark.parametrize("script", RUNS)
def test_script_reports_success_on_every_line(script):
    args, ok = RUNS[script]
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["n=1", "n=2", "n=3"]
    assert all(ok in line for line in lines), proc.stdout
