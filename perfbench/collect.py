#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads tiny-sweep,...]
                                 [--trace 0|1] [--out perfbench/results/BENCH_1.json]
                                 [--against perfbench/results/BENCH_1.json]

Runs BENCHMARK.json's command once per workload and seed, one run at a
time, from the root of the checkout, for BENCHMARK.json's ``run_seconds``.
For every metric it reports the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them. An end-to-end metric is
marked steady when its spread is below a third of its bound. With
``--against`` it also reports, for each end-to-end metric, by how much this
set's median is worse than that of an earlier set, as a share of the
earlier median, and whether that stays within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "platform": platform.platform()}


def one_run(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarize(runs, metrics):
    out = {}
    for m in metrics:
        name = m["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        entry = {"unit": m["unit"], "better": m["better"], "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
            if entry["median"]:
                entry["spread"] = (q3 - q1) / abs(entry["median"])
        if "bound" in m:
            entry["bound"] = m["bound"]
            if "spread" in entry:
                entry["steady"] = entry["spread"] < m["bound"] / 3
        entry["values"] = values
        out[name] = entry
    return out


def worse_by(metric, before, after):
    """How much worse ``after`` is than ``before``, as a share of ``before``
    (negative when it is better)."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def compare(report, earlier, metrics):
    """Median of each end-to-end metric against an earlier set's, per workload."""
    out = {}
    for workload, entry in report["workloads"].items():
        if workload not in earlier["workloads"]:
            continue
        rows = out[workload] = {}
        for m in metrics:
            before = earlier["workloads"][workload]["metrics"][m["name"]]["median"]
            after = entry["metrics"][m["name"]]["median"]
            worse = worse_by(m, before, after)
            rows[m["name"]] = {"earlier_median": before, "median": after,
                               "worse_by": worse, "bound": m["bound"],
                               "within_bound": worse <= m["bound"]}
            print(f"{workload} {m['name']}: median {before:.6g} -> {after:.6g} "
                  f"{m['unit']}, worse by {worse:+.3f} (bound {m['bound']})"
                  + ("" if worse <= m["bound"] else "  OUT OF BOUND"), flush=True)
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path,
                        help="an earlier --out of end-to-end runs to compare medians with")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"environment": environment(), "run_seconds": seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(one_run(spec, workload, seed, seconds, args.trace))
            r = runs[-1]
            print(f"{workload} seed {seed}: wall {r['wall_s']:.1f} s, {r['attempted']} ops, "
                  f"failed_ops_ratio={r['failed'] / r['attempted']:.4g}  "
                  + "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items()
                              if args.trace == 0), flush=True)
        summary = summarize(runs, metrics)
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": summary,
        }
        for name, entry in summary.items():
            spread = entry.get("spread")
            flag = {True: "steady", False: "NOT STEADY"}.get(entry.get("steady"), "")
            print(f"  {name}: median {entry['median']:.6g} {entry['unit']}"
                  + (f", spread {spread:.3f}" if spread is not None else "") + f" {flag}",
                  flush=True)
    if args.against and not args.trace:
        earlier = json.loads(args.against.read_text(encoding="utf-8"))
        report["against"] = {"file": str(args.against),
                             "workloads": compare(report, earlier, metrics)}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
