"""The measurement scripts run end to end at their smallest setting, the
crossover timing loop runs on a stubbed batch timer, the rules that read
each crossover table run on stubbed ratios, and the mutation check's
verdict and test order run on a stubbed mutant runner."""

import importlib.util
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from redlime import subspace

ROOT = Path(__file__).resolve().parent.parent
CROSSOVER = ROOT / "scripts" / "kernel_crossover.py"
MUTANTS = ROOT / "scripts" / "mutants.py"


def crossover(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(CROSSOVER), *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def load_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_kernel_crossover_codec_reports_a_table_width():
    run = crossover("--table", "codec", "--rounds", "1")
    assert run.returncode == 0, run.stderr
    out = run.stdout
    rows = [line.split() for line in out.splitlines() if re.match(r" +\d+ ", line)]
    assert [int(r[0]) for r in rows] == list(range(1, subspace._TABLE_WIDTH + 1))
    assert all(float(v) > 0 for r in rows for v in r[1:])
    assert re.search(r"table lookup (faster at every tabled width|not faster at width [\d, ]+)"
                     r".*; _TABLE_WIDTH is " + str(subspace._TABLE_WIDTH) + "$", out, re.M)


def test_kernel_crossover_rejects_an_unknown_table():
    for table in ("bogus", "q"):
        run = crossover("--table", table)
        assert run.returncode == 2 and f"invalid choice: '{table}'" in run.stderr


def test_slots_rule_starts_past_the_largest_slower_rank_bound(monkeypatch, capsys):
    script = load_script(CROSSOVER)

    def ratios(cases, first, second, rounds):
        # one tall GF(3) case of rank bound 7 past the tolerance, every other level
        return {case: 1.2 if case == (3, 12, 7) else 1.0 for case in cases}, {}

    monkeypatch.setattr(script, "ratios", ratios)
    script.slots_table(1)
    rules = [line for line in capsys.readouterr().out.splitlines() if "from rank bound" in line]
    assert [line.split(":")[0] for line in rules] == ["red rows"]
    assert " from rank bound 8 on " in rules[0]


def test_bareiss_rule_stops_below_the_smallest_slower_lcm(monkeypatch, capsys):
    script = load_script(CROSSOVER)

    def ratios(cases, first, second, rounds):
        assert first[1] == {"_BAREISS_BITS": 0} and second[1] == {"_BAREISS_BITS": 1 << 20}
        # one case at b = 8 past the tolerance, every other case below it
        return {case: 1.2 if case == (8, script.Q_SHAPES[-1]) else 0.5 for case in cases}, {}

    # each row's lcm is 2**b, of b + 1 bits
    monkeypatch.setattr(script, "q_rows", lambda rng, b, n, m, rank: [(Fraction(1, 2**b),) * m] * n)
    monkeypatch.setattr(script, "ratios", ratios)
    script.bareiss_table(1)
    assert ("whose row lcms are at most 8 bits (the next case, at 9 bits, read 1.20); "
            f"_BAREISS_BITS is {subspace._BAREISS_BITS}\n") in capsys.readouterr().out


@pytest.mark.parametrize("slow, verdict", [
    (None, "faster at every tabled width (1-{}) for every conversion"),
    ((5, "flip"), "not faster at width 5 for some conversion")])
def test_codec_report_names_each_width_where_lookup_loses(monkeypatch, capsys, slow, verdict):
    script = load_script(CROSSOVER)

    def ratios(cases, first, second, rounds):
        assert first[1] == {"_TABLE_WIDTH": 0} and second[1] == {}
        return ({case: 1.0 if case == slow else 0.5 for case in cases},
                {case: (1e-5, 5e-6) for case in cases})

    monkeypatch.setattr(script, "ratios", ratios)
    script.codec_table(1)
    out = capsys.readouterr().out
    top = subspace._TABLE_WIDTH
    assert f"table lookup {verdict.format(top)}; _TABLE_WIDTH is {top}\n" in out


def test_ratios_alternate_the_kernels_and_take_the_median_ratio(monkeypatch):
    script = load_script(CROSSOVER)
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
    out = subprocess.run([sys.executable, str(MUTANTS), "--check"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout
    assert re.match(r"\d+ mutants, each original text found once", out.stdout)


@pytest.mark.parametrize("survivor", [None, "narrower codec tables"])
def test_mutants_fail_on_each_survivor(monkeypatch, capsys, survivor):
    script = load_script(MUTANTS)
    ran = []

    def run_mutant(path, original, mutated, first=None):
        name = next(m[0] for m in script.MUTANTS if m[1:] == (path, original, mutated))
        ran.append(name)
        return (None if name == survivor else "tests/test_x.py::test_x"), 0.1

    # the verdict only: inside a mutant's tree the real check() would fail
    monkeypatch.setattr(script, "check", lambda mutants: [])
    monkeypatch.setattr(script, "run_mutant", run_mutant)
    monkeypatch.setattr(sys, "argv", [str(MUTANTS)])
    assert script.main() == (1 if survivor else 0)
    assert ran == [m[0] for m in script.MUTANTS]
    out = capsys.readouterr().out
    assert out.count("killed by tests/test_x.py::test_x") == len(ran) - bool(survivor)
    if survivor:
        assert f"{survivor}: survived" in out and out.endswith(f"1 survivor(s)\n  {survivor}\n")
    else:
        assert out.endswith("0 survivor(s)\n")


def test_white_box_mutants_run_their_test_file_first(monkeypatch, capsys):
    script = load_script(MUTANTS)
    every = sorted(f"tests/{f.name}" for f in (ROOT / "tests").glob("test_*.py"))
    packed = script.suite_files(script.PACKED)
    assert packed[0] == "tests/test_packed.py" and sorted(packed) == every
    assert script.suite_files() == every
    firsts = {}

    def run_mutant(path, original, mutated, first=None):
        firsts[next(m[0] for m in script.MUTANTS if m[1:] == (path, original, mutated))] = first
        return "tests/test_x.py::test_x", 0.1

    check = script.check
    # as in test_mutants_fail_on_each_survivor: a mutant's tree fails check()
    monkeypatch.setattr(script, "check", lambda mutants: [])
    monkeypatch.setattr(script, "run_mutant", run_mutant)
    monkeypatch.setattr(sys, "argv", [str(MUTANTS)])
    assert script.main() == 0
    assert {name for name, first in firsts.items() if first} == script.PACKED_FIRST
    assert set(firsts.values()) == {None, script.PACKED}
    monkeypatch.setattr(script, "PACKED_FIRST", {"no such mutant"})
    assert "no such mutant: in PACKED_FIRST but no mutant" in check(script.MUTANTS)
