"""The measurement scripts run end to end at their smallest setting."""

import os
import re
import subprocess
import sys
from pathlib import Path

from redlime import subspace

ROOT = Path(__file__).resolve().parent.parent


def test_kernel_crossover_codec_reports_a_table_width():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "kernel_crossover.py"),
                          "--codec", "--rounds", "1"],
                         env=env, capture_output=True, text=True, timeout=60, check=True).stdout
    rows = [line.split() for line in out.splitlines() if re.match(r" +\d+ ", line)]
    assert [int(r[0]) for r in rows] == list(range(1, 13))
    assert all(float(v) > 0 for r in rows for v in r[1:])
    assert re.search(r"largest width at which the table wins: \d+ .*_TABLE_WIDTH is "
                     + str(subspace._TABLE_WIDTH), out)


def test_mutants_find_each_original_text_once():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "mutants.py"), "--check"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout
    assert re.match(r"\d+ mutants and \d+ equivalent mutants, each original text found once",
                    out.stdout)
