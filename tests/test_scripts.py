"""The measurement scripts run end to end at their smallest setting, and the
crossover timing loop runs on a stubbed batch timer."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from redlime import subspace

ROOT = Path(__file__).resolve().parent.parent
CROSSOVER = ROOT / "scripts" / "kernel_crossover.py"


def crossover(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(CROSSOVER), *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_kernel_crossover_codec_reports_a_table_width():
    run = crossover("--table", "codec", "--rounds", "1")
    assert run.returncode == 0, run.stderr
    out = run.stdout
    rows = [line.split() for line in out.splitlines() if re.match(r" +\d+ ", line)]
    assert [int(r[0]) for r in rows] == list(range(1, 13))
    assert all(float(v) > 0 for r in rows for v in r[1:])
    assert re.search(r"largest width at which the table wins: \d+ .*_TABLE_WIDTH is "
                     + str(subspace._TABLE_WIDTH), out)


def test_kernel_crossover_rejects_an_unknown_table():
    run = crossover("--table", "bogus")
    assert run.returncode == 2 and "invalid choice: 'bogus'" in run.stderr


def test_ratios_alternate_the_kernels_and_take_the_median_ratio(monkeypatch):
    spec = importlib.util.spec_from_file_location("kernel_crossover", CROSSOVER)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # per kernel: one calibration call (first only), then one time a round
    times = {"a": iter([1e-4, 1.0, 2.0, 4.0]), "b": iter([3.0, 4.0, 2.0])}
    calls = []

    def batch_time(kernel, args, number):
        calls.append((kernel, args, number))
        return next(times[kernel])

    monkeypatch.setattr(script, "batch_time", batch_time)
    ratio, medians = script.ratios({"case": ("args",)}, "a", "b", 3)
    assert calls[0] == ("a", ("args",), 1)
    assert [(k, n) for k, _, n in calls[1:]] == [("a", 20), ("b", 20), ("b", 20), ("a", 20),
                                                 ("a", 20), ("b", 20)]
    # the ratios are 3, 2 and 0.5: their median, not the ratio of the medians 3/2
    assert ratio == {"case": 2.0}
    assert medians == {"case": (2.0, 3.0)}


def test_mutants_find_each_original_text_once():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "mutants.py"), "--check"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout
    assert re.match(r"\d+ mutants and \d+ equivalent mutants, each original text found once",
                    out.stdout)
