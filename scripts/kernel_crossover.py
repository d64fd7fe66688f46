#!/usr/bin/env python3
"""Where each elimination kernel starts to pay: time two kernels on the same
inputs and print the ratio of their times, for one of three tables.

Every table is measured the same way, by ``ratios``. Each case is a set of
inputs; a batch is a number of calls on them calibrated to about BATCH_S of
the first kernel. Each of --rounds rounds times both kernels on every case,
the best of REPEAT batches each, alternating which kernel goes first; a
case's ratio is the median over the rounds of the second kernel's time over
the first's, so below 1 means the second kernel is faster. A kernel forced
by rebinding a constant of ``subspace`` has it rebound around its timed
batches only, and restored after. The process is pinned to one core.

``--table slots`` (the default) times ``subspace._eliminate`` over odd p,
for the red rows and for the red keys, with the slot kernel against the
insertion kernel, each forced by rebinding ``_SLOTS_FROM``: ``_eliminate``
runs a slot kernel (for the rows ``_red_echelon_slots``, for the keys
``_echelon_slots``) when both the row count and the width are
at least ``_SLOTS_FROM``. A case is SAMPLES sets of random rows over GF(p),
so of rank min(rows, width) but for chance dependencies, eliminated one
after the other (one set alone makes the ratio depend on its entries). For
the rows and then the keys: a table by prime, the largest ratio, by prime,
among the cases whose rank bound min(rows, width) is b, and a line giving
the fewest b from which no case, at any prime, takes the slot kernel more
than TOLERANCE times the insertion kernel's time (a margin for timing
noise): the rule that sets ``_SLOTS_FROM``, which serves both.

``--table q`` times Q, where ``_eliminate`` has no crossover: the
``_insert_red`` loop on Fractions (the kernel it ran over Q before) against
the integer kernel (``_red_ints``), on random rows of small fractions, 1-12
rows, widths 1-30. The last line gives the largest ratio.

``--table codec`` times the two ways the one GF(2) codec converts a row of
width 1 to 12 between tuple and code: by bytes translation against the
lookup tables (``subspace._CODES`` and ``subspace._ROWS``, rebuilt here to
width 12), each forced by rebinding ``_TABLE_WIDTH``, for ``_codes``
(packing, as the lime side and ``_product`` do, and flipped, as the red
side does) and for decoding (``_ROWS`` against ``_wide_rows``) on the same
random rows. It also prints translation's ns per row, and the build time of
the table rows up to each width, the best over the rounds. The tables are
built at every import of the package, so the last line gives the largest
width at which the table wins: it is faster at that width and every
narrower one, for every conversion, and the tables up to that width build
within BUILD_BUDGET_MS. That width sets ``_TABLE_WIDTH``.

    PYTHONPATH=src python3 scripts/kernel_crossover.py [--rounds 7] \
        [--table slots|q|codec]
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

REPEAT = 5  # timed batches per kernel and round
BATCH_S = 2e-3  # a batch's length, in seconds of the first kernel
SEED = 1


def batch_time(kernel, args, number):
    """Seconds per call of a kernel, a pair (call, forced), on a case's args:
    the best of REPEAT batches of number calls ``call(*args)``, with the
    ``subspace`` constants named in forced rebound around the batches."""
    call, forced = kernel
    saved = {name: getattr(subspace, name) for name in forced}
    vars(subspace).update(forced)
    try:
        return min(timeit.repeat(lambda: call(*args), number=number, repeat=REPEAT)) / number
    finally:
        vars(subspace).update(saved)


def ratios(cases, first, second, rounds):
    """For cases (key -> args), the median over rounds of second's time over
    first's by key, and each kernel's median time per call by key, as a
    pair (first's, second's). Batches are about BATCH_S of first; first
    goes first in even rounds, second in odd ones."""
    numbers = {key: max(1, int(BATCH_S / batch_time(first, args, 1)))
               for key, args in cases.items()}
    times = {key: ([], []) for key in cases}
    for r in range(rounds):
        for key, args in cases.items():
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[key][i].append(batch_time((first, second)[i], args, numbers[key]))
    ratio = {key: statistics.median([b / a for a, b in zip(*t)]) for key, t in times.items()}
    medians = {key: tuple(map(statistics.median, t)) for key, t in times.items()}
    return ratio, medians


def on_samples(op, **forced):
    """A kernel that runs op(rows, p) on each row set of a case (samples, p)."""
    return (lambda samples, p: [op(rows, p) for rows in samples]), forced


PRIMES = (3, 5, 65521)
ROWS = (4, 5, 6, 7, 8, 9, 10, 12)
WIDTHS = (4, 6, 8, 12, 16, 30)
SAMPLES = 4  # row sets per case
TOLERANCE = 1.05  # largest slot/insertion ratio still counted as no slower


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
          f"unmeasured); _SLOTS_FROM is {subspace._SLOTS_FROM}")


def slots_table(rounds):
    """Median time ratio of the slot kernels to the insertion kernel over odd p."""
    rng = random.Random(SEED)
    cases = {(p, n, m): ([[tuple(rng.randrange(p) for _ in range(m)) for _ in range(n)]
                          for _ in range(SAMPLES)], p)
             for p in PRIMES for n in ROWS for m in WIDTHS}
    for name, op in (("red rows", lambda rows, p: subspace._eliminate(rows, len(rows[0]), p)),
                     ("red keys", lambda rows, p: subspace._eliminate(rows, len(rows[0]), p,
                                                                       keys_only=True))):
        median, _ = ratios(cases, on_samples(op, _SLOTS_FROM=1 << 30),
                           on_samples(op, _SLOTS_FROM=1), rounds)
        report(name, cases, median, rounds)
        print()


Q_ROWS = (1, 2, 3, 4, 6, 8, 10, 12)
Q_WIDTHS = (1, 2, 4, 8, 16, 30)


def insertion_red(rows):
    """The red-basis dict of rows over Q by the insertion kernel."""
    basis = {}
    for row in rows:
        subspace._insert_red(basis, list(row), None)
    return basis


def q_table(rounds):
    """Median time ratio of the integer kernel to the insertion kernel over Q."""
    rng = random.Random(SEED)
    cases = {(n, m): ([[tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m))
                        for _ in range(n)] for _ in range(SAMPLES)], None)
             for n in Q_ROWS for m in Q_WIDTHS}
    median, _ = ratios(cases, on_samples(lambda rows, p: insertion_red(rows)),
                       on_samples(lambda rows, p: subspace._red_ints(rows)), rounds)
    print(f"Q: integer kernel time / insertion kernel time, median of {rounds} rounds "
          f"of best-of-{REPEAT}")
    print("rows " + "".join(f"{'w=' + str(m):>7}" for m in Q_WIDTHS))
    for n in Q_ROWS:
        print(f"{n:4} " + "".join(f"{median[n, m]:7.2f}" for m in Q_WIDTHS))
    print(f"\nlargest ratio {max(median.values()):.2f}")


CODEC_WIDTHS = range(1, 13)
CODEC_ROWS = 64  # random rows per width
# the tables' build time allowed at import: about 2% of importing redlime.cli
# (about 11 ms), which every CLI run pays
BUILD_BUDGET_MS = 0.2
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


def convert(op, rows, xs, n):
    """A codec case's conversion: op, one of CODEC_OPS, on its rows or codes."""
    return op(rows, xs, n)


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


def codec_table(rounds):
    """Time ratios of table to translation by width, and the tables' build time."""
    rng = random.Random(SEED)
    cases = {}
    for n in CODEC_WIDTHS:
        rows = [tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(CODEC_ROWS)]
        xs = [rng.getrandbits(n) for _ in range(CODEC_ROWS)]
        cases.update({(n, op): (CODEC_OPS[op], rows, xs, n) for op in CODEC_OPS})
    builds = [build_tables(CODEC_WIDTHS) for _ in range(rounds)]
    build = {n: min(took[n] for _, _, took in builds) for n in CODEC_WIDTHS}
    saved = subspace._ROWS, subspace._CODES
    subspace._ROWS, subspace._CODES, _ = builds[-1]
    try:
        ratio, medians = ratios(cases, (convert, {"_TABLE_WIDTH": 0}),
                                (convert, {"_TABLE_WIDTH": max(CODEC_WIDTHS)}), rounds)
    finally:
        subspace._ROWS, subspace._CODES = saved
    per_row = {case: translated / CODEC_ROWS * 1e9 for case, (translated, _) in medians.items()}
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
          f"_TABLE_WIDTH is {subspace._TABLE_WIDTH}")


TABLES = {"slots": slots_table, "q": q_table, "codec": codec_table}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--table", choices=tuple(TABLES), default="slots",
                    help="which pair of kernels to time (default: slots)")
    args = ap.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    TABLES[args.table](args.rounds)


if __name__ == "__main__":
    main()
