#!/usr/bin/env python3
"""Where the slot kernels start to pay: time ``subspace._eliminate`` over
odd p, for the red rows and for the red keys, with each kernel forced, and
print the ratio of their times.

``_eliminate`` runs a slot kernel (for the rows ``_red_slots`` or
``_red_echelon_slots``, for the keys ``_echelon_slots``) when both the row
count and the width are at least ``subspace._SLOTS_FROM``, and the
insertion kernel otherwise. Rebinding that constant here forces one
kernel or the other on the same rows: for each case, SAMPLES sets of random
rows over GF(p), so of rank min(rows, width) but for chance dependencies,
eliminated one after the other (one set alone makes the ratio depend on its
entries). Each round times both kernels on every case, the best of REPEAT
timed batches each, alternating which kernel goes first; each ratio is the
median over --rounds rounds of the slot kernel's time over the insertion
kernel's, so below 1 means the slot kernel is faster. The process is
pinned to one core. For the rows and then the keys: a table by prime, the
largest ratio, by prime, among the cases whose rank bound min(rows, width)
is b, and a line giving the fewest b from which no case, at any prime,
takes the slot kernel more than TOLERANCE times the insertion kernel's time
(a margin for timing noise): the rule that sets ``_SLOTS_FROM``, which
serves both.

With ``--passes`` it times the two odd-p slot reductions that
``_eliminate`` chooses between from ``_SLOTS_FROM`` on, each forced on the same rows:
``_red_slots`` (one Gauss–Jordan pass) and ``_red_echelon_slots`` (an
echelon pass, then the standard basis if it finds every key, else
back-substitution), by prime (3, 5, 65521) and shape (tall, square and
wide, 8 to 150 rows or entries), at full rank min(rows, width) and at
about three quarters of it. Each ratio is the two-pass time over the
one-pass time, the median over --rounds alternating rounds; the summary
gives the largest ratio by shape class, which is what sets the gate:
``_eliminate`` takes two passes on at least as many rows as entries, the
only shape whose span can be all of F^n.

With ``--field q`` it times Q instead, where ``_eliminate`` has no
crossover: the integer kernel (``_red_ints``) against the ``_insert_red``
loop on Fractions (the kernel it ran over Q before), on random rows of
small fractions, 1-12 rows, widths 1-30, measured the same way. A ratio
below 1 means the integer kernel is faster; the last line gives the
largest ratio.

With ``--codec`` it times the two ways the one GF(2) codec converts a row
of width 1 to 12 between tuple and code: by the lookup tables
(``subspace._CODES`` and ``subspace._ROWS``, rebuilt here to width 12) and
by bytes translation, each forced by rebinding ``subspace._TABLE_WIDTH``,
for ``_codes`` (packing, as the lime side and ``_product`` do, and flipped,
as the red side does) and for decoding (``_ROWS`` against ``_wide_rows``)
on the same random rows. Each ratio is the table's time over translation's, the median over
--rounds alternating rounds of best-of-REPEAT batches, so below 1 means the
table is faster; the build time of the table rows up to each width is the
best over the rounds. The tables are built at every import of the package,
so the last line gives the largest width at which the table wins: it is
faster at that width and every narrower one, for every conversion,
and the tables up to that width build within BUILD_BUDGET_MS. That width
sets ``_TABLE_WIDTH``.

    PYTHONPATH=src python3 scripts/kernel_crossover.py [--rounds 7] \
        [--field q | --passes | --codec]
"""

import argparse
import os
import random
import statistics
import time
import timeit
from fractions import Fraction
from itertools import product

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


def best_time(op, samples, p, slots_from, number):
    subspace._SLOTS_FROM = slots_from
    try:
        return min(timeit.repeat(lambda: [op(rows, p) for rows in samples],
                                 number=number, repeat=REPEAT)) / number
    finally:
        subspace._SLOTS_FROM = DEFAULT


def insertion_red(rows):
    """The red-basis dict of rows over Q by the insertion kernel."""
    basis = {}
    for row in rows:
        subspace._insert_red(basis, list(row), None)
    return basis


Q_ROWS = (1, 2, 3, 4, 6, 8, 10, 12)
Q_WIDTHS = (1, 2, 4, 8, 16, 30)
Q_KERNELS = {"insertion": insertion_red, "ints": subspace._red_ints}


def q_time(samples, kind, number):
    kernel = Q_KERNELS[kind]
    return min(timeit.repeat(lambda: [kernel(rows) for rows in samples],
                             number=number, repeat=REPEAT)) / number


def q_table(rounds):
    """Median time ratio of the integer kernel to the insertion kernel over Q."""
    rng = random.Random(SEED)
    cases = {(n, m): [[tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m))
                       for _ in range(n)] for _ in range(SAMPLES)]
             for n in Q_ROWS for m in Q_WIDTHS}
    numbers = {case: max(1, int(2e-3 / q_time(samples, "insertion", 1)))
               for case, samples in cases.items()}
    ratios = {case: [] for case in cases}
    for r in range(rounds):
        order = ("insertion", "ints") if r % 2 == 0 else ("ints", "insertion")
        for case, samples in cases.items():
            t = {kind: q_time(samples, kind, numbers[case]) for kind in order}
            ratios[case].append(t["ints"] / t["insertion"])
    median = {case: statistics.median(v) for case, v in ratios.items()}
    print(f"Q: integer kernel time / insertion kernel time, median of {rounds} rounds "
          f"of best-of-{REPEAT}")
    print("rows " + "".join(f"{'w=' + str(m):>7}" for m in Q_WIDTHS))
    for n in Q_ROWS:
        print(f"{n:4} " + "".join(f"{median[n, m]:7.2f}" for m in Q_WIDTHS))
    print(f"\nlargest ratio {max(median.values()):.2f}")


# (rows, width) for the --passes table: tall, square and wide, 8 to 150
PASS_SHAPES = ((16, 8), (30, 10), (60, 25), (150, 100),
               (8, 8), (12, 12), (25, 25), (50, 50), (100, 100), (150, 150),
               (8, 16), (12, 24), (25, 50), (75, 150))
REDUCTIONS = {"one pass": subspace._red_slots, "two passes": subspace._red_echelon_slots}


def rows_of_rank(rng, p, n, m, rank):
    """n random rows of width m over GF(p) spanning ``rank`` dimensions (but
    for chance dependencies): combinations of ``rank`` random rows."""
    base = [[rng.randrange(p) for _ in range(m)] for _ in range(rank)]
    rows = []
    for _ in range(n):
        cs = [rng.randrange(p) for _ in range(rank)]
        rows.append(tuple(sum(c * b[j] for c, b in zip(cs, base)) % p for j in range(m)))
    return rows


def pass_time(kind, samples, p, number):
    kernel = REDUCTIONS[kind]
    return min(timeit.repeat(lambda: [kernel(rows, p) for rows in samples],
                             number=number, repeat=REPEAT)) / number


def passes_table(rounds):
    """Median time ratio of the two-pass odd-p reduction to the one-pass one."""
    rng = random.Random(SEED)
    cases = {}
    for p in PRIMES:
        for n, m in PASS_SHAPES:
            for rank in (min(n, m), 3 * min(n, m) // 4):
                samples = [rows_of_rank(rng, p, n, m, rank) for _ in range(2)]
                one, two = (REDUCTIONS[kind](samples[0], p) for kind in REDUCTIONS)
                assert one == two, (p, n, m, rank)
                cases[p, n, m, rank] = samples
    numbers = {case: max(1, int(2e-3 / pass_time("one pass", samples, case[0], 1)))
               for case, samples in cases.items()}
    ratios = {case: [] for case in cases}
    for r in range(rounds):
        order = tuple(REDUCTIONS)[::1 if r % 2 == 0 else -1]
        for case, samples in cases.items():
            t = {kind: pass_time(kind, samples, case[0], numbers[case]) for kind in order}
            ratios[case].append(t["two passes"] / t["one pass"])
    median = {case: statistics.median(v) for case, v in ratios.items()}
    print(f"two-pass time / one-pass time, median of {rounds} rounds of best-of-{REPEAT}")
    print(f"{'shape':>16} {'rank':>8}" + "".join(f"{'GF(' + str(p) + ')':>12}" for p in PRIMES))
    worst = {}
    for n, m in PASS_SHAPES:
        shape = "wide" if n < m else "square" if n == m else "tall"
        for full in (True, False):
            rank = min(n, m) if full else 3 * min(n, m) // 4
            span = "full" if full and n >= m else "rank " + str(rank)
            row = [median[p, n, m, rank] for p in PRIMES]
            key = ("rows < entries" if n < m else "rows >= entries",
                   "full span" if full and n >= m else "not full span")
            worst[key] = max(worst.get(key, 0), *row)
            print(f"{n:4}x{m:<4} {shape:>6} {span:>8}" + "".join(f"{g:12.2f}" for g in row))
    print("\nlargest ratio by class")
    for (gate, span), g in sorted(worst.items()):
        print(f"  {gate:16} {span:14} {g:5.2f}")


CODEC_WIDTHS = range(1, 13)
CODEC_ROWS = 64  # random rows per width
# the tables' build time allowed at import: about 2% of importing redlime.cli
# (about 11 ms), which every CLI run pays
BUILD_BUDGET_MS = 0.2
CODEC_DEFAULT = subspace._TABLE_WIDTH
CODEC_OPS = {
    "pack": lambda rows, xs, n: subspace._codes(rows, n, False),
    "flip": lambda rows, xs, n: subspace._codes(rows, n, True),
    "unpack": lambda rows, xs, n: decode(xs, n),
}


def decode(xs, n):
    """The rows of the codes xs as the package decodes them: by table up to
    ``_TABLE_WIDTH`` entries, else by translation."""
    table = subspace._ROWS[n] if n <= subspace._TABLE_WIDTH else subspace._wide_rows(xs, n)
    return [table[x] for x in xs]


def build_tables(widths):
    """The package's tables for the given widths, with the time each width's
    rows took to build, in seconds."""
    rows, took = [((),)], {}
    for n in widths:
        start = time.perf_counter()
        rows.append(tuple(product((0, 1), repeat=n)))
        took[n] = time.perf_counter() - start
    start = time.perf_counter()
    codes = {row: x for by_code in rows for x, row in enumerate(by_code)}
    per_row = (time.perf_counter() - start) / len(codes)
    return tuple(rows), codes, {n: t + per_row * 2 ** n for n, t in took.items()}


def codec_time(op, rows, xs, n, tabled, number):
    subspace._TABLE_WIDTH = max(CODEC_WIDTHS) if tabled else 0
    try:
        return min(timeit.repeat(lambda: CODEC_OPS[op](rows, xs, n),
                                 number=number, repeat=REPEAT)) / number / len(rows)
    finally:
        subspace._TABLE_WIDTH = CODEC_DEFAULT


def codec_table(rounds):
    """Time ratios of table to translation by width, and the tables' build time."""
    rng = random.Random(SEED)
    cases = {n: ([tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(CODEC_ROWS)],
                 [rng.getrandbits(n) for _ in range(CODEC_ROWS)]) for n in CODEC_WIDTHS}
    saved = subspace._ROWS, subspace._CODES
    ratios = {(n, op): [] for n in CODEC_WIDTHS for op in CODEC_OPS}
    translated = {(n, op): [] for n in CODEC_WIDTHS for op in CODEC_OPS}
    builds = {n: [] for n in CODEC_WIDTHS}
    try:
        for r in range(rounds):
            subspace._ROWS, subspace._CODES, took = build_tables(CODEC_WIDTHS)
            for n in CODEC_WIDTHS:
                builds[n].append(took[n])
            order = (True, False) if r % 2 == 0 else (False, True)
            for n, (rows, xs) in cases.items():
                for op in CODEC_OPS:
                    t = {tabled: codec_time(op, rows, xs, n, tabled, 50) for tabled in order}
                    ratios[n, op].append(t[True] / t[False])
                    translated[n, op].append(t[False])
    finally:
        subspace._ROWS, subspace._CODES = saved
    ratio = {case: statistics.median(v) for case, v in ratios.items()}
    per_row = {case: statistics.median(v) * 1e9 for case, v in translated.items()}
    build = {n: min(v) for n, v in builds.items()}
    print(f"GF(2) row codec: table time / translation time, median of {rounds} rounds of "
          f"best-of-{REPEAT}, and translation's ns per row; build: ms for the tables up to "
          f"the width, best of {rounds}")
    print(f"{'width':>5}" + "".join(f"{op:>7} {'ns':>5}" for op in CODEC_OPS) + f"{'build':>8}")
    total, wins = 0.0, 0
    for n in CODEC_WIDTHS:
        total += build[n]
        print(f"{n:5}" + "".join(f"{ratio[n, op]:7.2f} {per_row[n, op]:5.0f}" for op in CODEC_OPS)
              + f"{total * 1e3:8.3f}")
        if wins == n - 1 and max(ratio[n, op] for op in CODEC_OPS) < 1 \
                and total * 1e3 <= BUILD_BUDGET_MS:
            wins = n
    print(f"\nlargest width at which the table wins: {wins} (faster there and at every "
          f"narrower width, tables built within {BUILD_BUDGET_MS} ms); "
          f"_TABLE_WIDTH is {CODEC_DEFAULT}")


def odd_p_ratios(op, cases, rounds):
    """Median time ratio of op with the slot kernel forced to op with the
    insertion kernel forced, by case."""
    # calls per batch: about 2 ms of the insertion kernel
    numbers = {case: max(1, int(2e-3 / best_time(op, samples, case[0], FORCED["insertion"], 1)))
               for case, samples in cases.items()}
    ratios = {case: [] for case in cases}
    for r in range(rounds):
        order = ("insertion", "slots") if r % 2 == 0 else ("slots", "insertion")
        for case, samples in cases.items():
            t = {kind: best_time(op, samples, case[0], FORCED[kind], numbers[case])
                 for kind in order}
            ratios[case].append(t["slots"] / t["insertion"])
    return {case: statistics.median(v) for case, v in ratios.items()}


def report(name, cases, median, rounds):
    print(f"{name}: slot kernel time / insertion kernel time, median of {rounds} rounds "
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
    print(f"\n{name}: slot kernel at most {TOLERANCE:.2f}x the insertion kernel's time for "
          f"every case from rank bound {max(slower, default=0) + 1} on (past {bounds[-1]} "
          f"unmeasured); _SLOTS_FROM is {DEFAULT}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--field", choices=("odd-p", "q"), default="odd-p")
    ap.add_argument("--passes", action="store_true",
                    help="time the one- and two-pass odd-p reductions by shape")
    ap.add_argument("--codec", action="store_true",
                    help="time the GF(2) row codec by table and by translation, by width")
    args = ap.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.codec:
        return codec_table(args.rounds)
    if args.passes:
        return passes_table(args.rounds)
    if args.field == "q":
        return q_table(args.rounds)
    rng = random.Random(SEED)
    cases = {(p, n, m): [[tuple(rng.randrange(p) for _ in range(m)) for _ in range(n)]
                         for _ in range(SAMPLES)]
             for p in PRIMES for n in ROWS for m in WIDTHS}
    for name, op in (("red rows", lambda rows, p: subspace._eliminate(rows, len(rows[0]), p)),
                     ("red keys", lambda rows, p: subspace._eliminate(rows, len(rows[0]), p,
                                                                       keys_only=True))):
        report(name, cases, odd_p_ratios(op, cases, args.rounds), args.rounds)
        print()


if __name__ == "__main__":
    main()
