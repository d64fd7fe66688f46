"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs one short pass untraced and traced; every metric that
BENCHMARK.json names must be present, the count metrics must repeat exactly
across two traced runs, and a corrupted output must be counted as a failed
op rather than stop the run.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if m["name"].endswith(".calls")
                 or m["name"] in ("fields.scalar_new", "fields.inverse", "fields.q_out_bits")]


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "TINY_SEEDED", 8)
    monkeypatch.setattr(workloads, "DENSE_CLASSES", (
        (2, 8, 8, 8, workloads.ALL5, 1),
        (2, 6, 12, 4, workloads.THREE, 1),
        (65521, 6, 6, 4, workloads.ALL5, 1),
    ))
    monkeypatch.setattr(workloads, "RATIONAL_CLASSES", ((6, 4, 1), (8, 4, 1)))
    monkeypatch.setattr(workloads, "CLI_COMMANDS", (
        ("rref", ("g2_3x4", "q_3x4")),
        ("member", ("g2_3x4", "q_3x4")),
        ("nullspace", ("gp_3x4",)),
        ("factor", ("q_3x4",)),
        ("verify", ("gp_3x4",)),
    ))


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_present(name):
    for trace, wanted in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result, notes = run.run_workload(name, seed=3, seconds=0.01, trace_on=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert notes["failed_ops_ratio"] == 0
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_across_traced_runs(name):
    first, _ = run.run_workload(name, seed=5, seconds=0.01, trace_on=True)
    second, _ = run.run_workload(name, seed=5, seconds=0.2, trace_on=True)
    for metric in COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_corrupted_outputs_count_as_failed_ops():
    def corrupt(lib):
        def wrong_rref(a):
            return lib.matrix.Matrix.zero(a.field, a.nrows, a.ncols)

        def broken_nullspace(a):
            raise RuntimeError("injected fault")

        tracing.patch_everywhere(lib, "matrix", "rref", wrong_rref)
        tracing.patch_everywhere(lib, "matrix", "nullspace", broken_nullspace)
        tracing.patch_everywhere(lib, "matrix", "full_rank_factorization", lambda a: "garbage")

    result, notes = run.run_workload("dense-modp", seed=1, seconds=0.01, trace_on=False,
                                     patch=corrupt)
    # per pass: rref and nullspace on all three matrices, frf on two, of 13 ops
    assert not result["correct"]
    assert result["attempted"] % 13 == 0
    assert result["failed"] == result["attempted"] // 13 * 8
    assert notes["failed_ops_ratio"] == pytest.approx(8 / 13)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_feasibility_and_counts_agree_with_the_library():
    lib = run.import_redlime(HERE.parent / "src")
    for n in range(1, 7):
        for marks in itertools.product("bnlr", repeat=n):
            text = "".join(marks)
            sig = lib.signatures.Signature.from_string(text)
            assert workloads.feasible(text) == lib.signatures.is_feasible(sig), text
    for n, p in ((5, 2), (4, 3), (3, 5)):
        assert workloads.subspace_total(n, p) == lib.oracle.subspace_count(n, p)


def test_rational_rank_is_exact():
    import rawmath
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert rawmath.rank(rows, None) == 1
    assert rawmath.rational_rank(rows, 1) == 1
    assert rawmath.rational_rank(rows, 2) is None


def test_fails_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(SPEC["command"] + ["--workload", NAMES[0], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
