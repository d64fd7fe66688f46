#!/usr/bin/env python3
"""Benchmark of the redlime library and CLI: one closed-loop caller.

    python3 perfbench/run.py --workload dense-modp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each op starts only after the previous one has finished, and no threads
are used. A run repeats whole passes of the workload's ops until
``--seconds`` of op time have gone by, and checks each output right after
its op, outside the timed region. With ``--trace 0`` it reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it spends half the time untraced and half
traced and reports the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("fields", "subspace", "duality", "matrix", "signatures", "oracle",
           "matrixfile", "cli")
SETUP_REPEATS = 7        # set-up runs per measured run; setup_s is their median
HARD_LIMIT_S = 120       # stop mid-pass past this much wall time, to end in time


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source, say)."""


def import_redlime(src: Path) -> SimpleNamespace:
    """Import the package afresh from ``src`` and return its modules."""
    for name in [n for n in sys.modules if n == "redlime" or n.startswith("redlime.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        pkg = importlib.import_module("redlime")
        mods = {m: importlib.import_module("redlime." + m) for m in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import redlime from {src}: {exc}") from None
    if Path(pkg.__file__).resolve().parent != (src / "redlime").resolve():
        raise SetupError(f"redlime was imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**mods)


def set_up(workload, raw, work_dir):
    """Import, build the program's inputs from ``raw`` and warm up; returns
    (lib, plan, seconds at nominal speed).

    The import is scaled by the import gauge, the rest by the kernel gauge.
    Everything alive before the warm-up (the inputs, the benchmark's own
    objects) is frozen out of the collector's view, so ops do not pay to
    scan it; whatever the program keeps from the warm-up or the ops on stays
    in view.
    """
    gc.unfreeze()
    gc.collect()
    lib, import_s = reference.timed(lambda: import_redlime(ROOT / "src"), reference.IMPORT)
    gc.collect()  # the modules the import gauge dropped, before the freeze

    def build():
        plan = workload.build(lib, raw, tempfile.mkdtemp(dir=work_dir))
        gc.freeze()
        for op in plan.warmup:
            op.run()
        return plan
    plan, build_s = reference.timed(build)
    return lib, plan, import_s + build_s


class PeakWatch:
    """Which phase of a run last raised the peak resident memory (as the
    plan reads it): set-up, ops, checks or the speed gauge."""

    def __init__(self, read):
        self.read = read
        self.kb = read()
        self.setup_kb = self.kb
        self.phase = "setup"

    def after(self, phase):
        kb = self.read()
        if kb > self.kb:
            self.kb, self.phase = kb, phase


class _Raised:
    def __init__(self, exc):
        self.exc = exc


class Verifier:
    """Checks each output right after its op, outside the timed region.

    An output equal to the verified one from the same op of an earlier pass
    passes without the full check and is dropped for that one, so later
    passes do not pile up fresh outputs that the collector would scan on the
    ops' time.
    """

    def __init__(self, plan):
        self.plan = plan
        self.verified: dict = {}

    def settle(self, i, op, out):
        """Returns whether ``out`` is correct, and the object to keep."""
        if isinstance(out, _Raised):
            return False, out
        try:
            if i in self.verified and out == self.verified[i]:
                return True, self.verified[i]
            ok = bool(op.check(out))
        except Exception:  # a corrupted output may break the checker itself
            ok = False
        if ok:
            self.verified.setdefault(i, out)
        return ok, out


def run_phase(plan, ops, verifier, seconds, deadline, gauge, tracer=None, peak=None):
    """Whole passes of ``ops`` until ``seconds`` of op time have elapsed.

    The speed gauge is sampled before each pass and after every
    ``gauge.every_ns`` of op time; the ops in between are scaled by the mean
    of the two samples around them.
    """
    peak = peak or PeakWatch(plan.peak_kb)
    # compact arrays, so peak memory does not grow with the op count
    raw, scaled, failed = array("q"), array("d"), 0
    while True:
        results, bad = [], set()
        plan.start_pass()
        before = gauge.sample()
        peak.after("gauge")
        block_start, block_ns = len(raw), 0
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin_op(op.kind)
            t0 = time.perf_counter_ns()
            try:
                out = op.run()
            except Exception as exc:  # a failed op is counted and the run goes on
                out = _Raised(exc)
            t1 = time.perf_counter_ns()
            if tracer:
                tracer.end_op()
            peak.after("ops")
            raw.append(t1 - t0)
            ok, out = verifier.settle(i, op, out)
            peak.after("checks")
            if not ok:
                bad.add(i)
            results.append(out)
            block_ns += t1 - t0
            if block_ns >= gauge.every_ns or i == len(ops) - 1:
                after = gauge.sample()
                peak.after("gauge")
                f = gauge.scale(before, after)
                scaled.extend(x * f for x in raw[block_start:])
                before, block_start, block_ns = after, len(raw), 0
            if time.monotonic() > deadline:
                break
        scaled.extend(float(x) for x in raw[len(scaled):])  # a pass cut short by the deadline
        if len(results) == len(ops):
            bad |= plan.pass_failures(results)
            peak.after("checks")
        failed += len(bad)
        if sum(raw) >= seconds * 1e9 or time.monotonic() > deadline:
            return SimpleNamespace(raw=raw, scaled=scaled, failed=failed,
                                   ops_per_s=len(raw) * 1e9 / sum(scaled),
                                   raw_ops_per_s=len(raw) * 1e9 / sum(raw))


def percentile_ms(latencies_ns, pct) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ordered = sorted(latencies_ns)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1] / 1e6


def q_out_bits(outputs) -> int:
    """Largest numerator or denominator bit length among rational outputs."""
    best = 0
    stack = list(outputs)
    while stack:
        x = stack.pop()
        if isinstance(x, (tuple, list)):
            stack.extend(x)
        elif hasattr(x, "rows"):                 # Matrix
            stack.extend(x.rows)
        elif hasattr(x, "red_basis"):            # Subspace
            stack.extend(x.red_basis)
        elif hasattr(x, "vectors"):              # LimeBasis
            stack.extend(x.vectors)
        elif hasattr(x, "entries"):              # Vector
            stack.extend(x.entries)
        elif hasattr(x, "g") and hasattr(x, "b"):  # FullRankFactors
            stack.extend((x.b, x.g))
        elif isinstance(getattr(x, "value", None), Fraction):
            best = max(best, x.value.numerator.bit_length(), x.value.denominator.bit_length())
    return best


def rref_over_textbook(lib, matrices) -> float:
    """Time of ``rref`` over time of ``oracle.textbook_rref``, same inputs."""
    t_rref = t_book = 0
    for a in matrices:
        t0 = time.perf_counter_ns()
        lib.matrix.rref(a)
        t1 = time.perf_counter_ns()
        lib.oracle.textbook_rref(a)
        t2 = time.perf_counter_ns()
        t_rref += t1 - t0
        t_book += t2 - t1
    return t_rref / t_book


def measure(workload, seed, seconds, work_dir, deadline, patch=None):
    """The untraced run: end-to-end metrics."""
    raw = workload.generate(seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        lib = plan = None  # so that two set-ups are never alive at once
        lib, plan, dt = set_up(workload, raw, work_dir)
        setups.append(dt)
    if patch:
        patch(lib)
    peak = PeakWatch(plan.peak_kb)
    phase = run_phase(plan, plan.ops, Verifier(plan), seconds, deadline, plan.gauge,
                      peak=peak)
    n = len(phase.raw)
    metrics = {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(phase.scaled) / 1e6,
        "op_tail_ms": percentile_ms(phase.scaled, workload.tail_pct),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak.kb / 1024,
    }
    notes = {"samples": n, "tail_percentile": workload.tail_pct,
             "peak_rss_set_by": peak.phase, "setup_peak_rss_mb": peak.setup_kb / 1024,
             "setup_s_each": [round(s, 4) for s in setups],
             "samples_beyond_tail": n - math.ceil(workload.tail_pct / 100 * n),
             "wall_ops_per_s": phase.raw_ops_per_s,
             "wall_op_p50_ms": statistics.median(phase.raw) / 1e6,
             "wall_op_tail_ms": percentile_ms(phase.raw, workload.tail_pct)}
    return n, phase.failed, metrics, notes


def layer_metrics(tracer, n_ops, speed) -> dict:
    """Per-op self times (scaled by the phase's mean ``speed`` factor) and
    counts."""
    out = {}
    for _, _, span in tracing.SPANS:
        ms = tracer.self_ns[span] * speed / 1e6 / n_ops
        out[span + "_ms" if span.endswith(".init") else span + ".self_ms"] = ms
        out[span + ".calls"] = tracer.calls[span] / n_ops
    for _, _, name in tracing.COUNTS:
        out[name] = tracer.counts[name] / n_ops
    return out


def trace(workload, seed, seconds, work_dir, deadline, spans_path, patch=None):
    """The traced run: per-layer metrics, against an untraced half."""
    lib, plan, _ = set_up(workload, workload.generate(seed), work_dir)
    if patch:
        patch(lib)
    ops = plan.traced_ops or plan.ops  # traced ops run in this process
    gauge = reference.KERNEL if plan.traced_ops else plan.gauge
    verifier = Verifier(plan)
    plain = run_phase(plan, ops, verifier, seconds / 2, deadline, gauge)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        traced = run_phase(plan, ops, verifier, seconds / 2, deadline, gauge,
                           tracer)
    finally:
        tracer.uninstall()
    n_traced = len(traced.raw)
    metrics = layer_metrics(tracer, n_traced, sum(traced.scaled) / sum(traced.raw))
    metrics.update({"cli.interp_ms": 0.0, "cli.import_ms": 0.0})
    metrics.update(plan.layer_extras())
    metrics["fields.q_out_bits"] = q_out_bits(verifier.verified.values())
    metrics["matrix.rref_over_textbook"] = rref_over_textbook(lib, plan.rref_inputs)
    metrics["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
    tracer.write(spans_path)
    attempted = len(plain.raw) + n_traced
    notes = {"traced_ops": n_traced, "spans_file": str(spans_path)}
    return attempted, plain.failed + traced.failed, metrics, notes


def run_workload(name, seed, seconds, trace_on, patch=None):
    """Run one workload and return the result object printed as JSON.

    ``patch(lib)``, when given, is applied to the imported modules after
    set-up; the smoke test uses it to corrupt outputs.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace_on else spec["end_to_end"]
    if not (ROOT / "src" / "redlime" / "__init__.py").is_file():
        raise SetupError(f"no package source at {ROOT / 'src' / 'redlime'}")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # Imports use bytecode caches, as from an installed package, whatever
    # PYTHONDONTWRITEBYTECODE says: the first import writes them under src/.
    sys.dont_write_bytecode = False
    workload = workloads.WORKLOADS[name]
    # One core for the benchmark and its children, so the reference kernel
    # gauges the core the ops run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=out_dir, prefix="work-")
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        if trace_on:
            spans = out_dir / f"spans-{name}-seed{seed}.jsonl"
            attempted, failed, metrics, notes = trace(workload, seed, seconds, work_dir,
                                                      deadline, spans, patch)
        else:
            attempted, failed, metrics, notes = measure(workload, seed, seconds, work_dir,
                                                        deadline, patch)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    notes["failed_ops_ratio"] = failed / attempted
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"failed_ops_ratio: {notes.pop('failed_ops_ratio'):.6g} ratio")
    for name, value in notes.items():
        print(f"{name}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
