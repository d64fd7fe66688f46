#!/usr/bin/env python3
"""Where the slot kernel starts to pay: time ``subspace._red`` over odd p
with each kernel forced, and print the ratio of their times.

``_red`` runs the slot kernel when both the row count and the width are at
least ``subspace._SLOTS_FROM``, and the insertion kernel otherwise.
Rebinding that constant here forces one kernel or the other on the same
rows: for each case, SAMPLES sets of random rows over GF(p), so of rank
min(rows, width) but for chance dependencies, eliminated one after the
other (one set alone makes the ratio depend on its entries). Each round times both kernels on every case, the best of
REPEAT timed batches each, alternating which kernel goes first; each ratio
is the median over --rounds rounds of the slot kernel's time over the
insertion kernel's, so below 1 means the slot kernel is faster. The process
is pinned to one core. The last table is the largest ratio, by prime,
among the cases whose rank bound min(rows, width) is b; the last line gives
the fewest b from which no case, at any prime, takes the slot kernel more
than TOLERANCE times the insertion kernel's time (a margin for timing
noise): the rule that sets ``_SLOTS_FROM``.

    PYTHONPATH=src python3 scripts/kernel_crossover.py [--rounds 7]
"""

import argparse
import os
import random
import statistics
import timeit

from redlime import subspace

PRIMES = (3, 5, 65521)
ROWS = (4, 5, 6, 7, 8, 9, 10, 12)
WIDTHS = (4, 6, 8, 12, 16, 30)
REPEAT = 5  # timed batches per kernel and round
SEED = 1
SAMPLES = 4  # row sets per case
TOLERANCE = 1.05  # largest slot/insertion ratio still counted as no slower
FORCED = {"insertion": 1 << 30, "slots": 1}  # values of _SLOTS_FROM
DEFAULT = subspace._SLOTS_FROM


def best_time(samples, p, slots_from, number):
    subspace._SLOTS_FROM = slots_from
    try:
        return min(timeit.repeat(lambda: [subspace._red(rows, p) for rows in samples],
                                 number=number, repeat=REPEAT)) / number
    finally:
        subspace._SLOTS_FROM = DEFAULT


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rng = random.Random(SEED)
    cases = {(p, n, m): [[tuple(rng.randrange(p) for _ in range(m)) for _ in range(n)]
                         for _ in range(SAMPLES)]
             for p in PRIMES for n in ROWS for m in WIDTHS}
    # calls per batch: about 2 ms of the insertion kernel
    numbers = {case: max(1, int(2e-3 / best_time(samples, case[0], FORCED["insertion"], 1)))
               for case, samples in cases.items()}
    ratios = {case: [] for case in cases}
    for r in range(args.rounds):
        order = ("insertion", "slots") if r % 2 == 0 else ("slots", "insertion")
        for case, samples in cases.items():
            t = {kind: best_time(samples, case[0], FORCED[kind], numbers[case])
                 for kind in order}
            ratios[case].append(t["slots"] / t["insertion"])
    median = {case: statistics.median(v) for case, v in ratios.items()}

    print(f"slot kernel time / insertion kernel time, median of {args.rounds} rounds "
          f"of best-of-{REPEAT}")
    head = "rows " + "".join(f"{'w=' + str(m):>7}" for m in WIDTHS)
    for p in PRIMES:
        print(f"\nGF({p})\n{head}")
        for n in ROWS:
            print(f"{n:4} " + "".join(f"{median[p, n, m]:7.2f}" for m in WIDTHS))
    bounds = sorted({min(n, m) for _, n, m in cases})
    print("\nlargest ratio by rank bound b = min(rows, width)\n   b "
          + "".join(f"{p:>8}" for p in PRIMES))
    worst = {}
    for b in bounds:
        largest = [max(median[case] for case in cases if case[0] == p and min(case[1:]) == b)
                   for p in PRIMES]
        worst[b] = max(largest)
        print(f"{b:4} " + "".join(f"{g:8.2f}" for g in largest))
    slower = [b for b in bounds if worst[b] > TOLERANCE]
    print(f"\nslot kernel at most {TOLERANCE:.2f}x the insertion kernel's time for every "
          f"case from rank bound {max(slower, default=0) + 1} on (past {bounds[-1]} "
          f"unmeasured); _SLOTS_FROM is {DEFAULT}")


if __name__ == "__main__":
    main()
