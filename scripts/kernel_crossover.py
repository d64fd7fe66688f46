#!/usr/bin/env python3
"""Where each elimination kernel starts to pay: time two kernels on the same
inputs and print the ratio of their times, for one of two tables.

Every table is measured the same way, by ``ratios``. Each case is a set of
inputs; a batch is a number of calls on them calibrated to about BATCH_S of
the first kernel. Each of --rounds rounds times both kernels on every case,
the best of REPEAT batches each, alternating which kernel goes first; a
case's ratio is the median over the rounds of the second kernel's time over
the first's, so below 1 means the second kernel is faster. A kernel forced
by rebinding a constant of ``subspace`` has it rebound around its timed
batches only, and restored after. The process is pinned to one core.

``--table slots`` (the default) times the red rows of
``subspace._eliminate`` over odd p, the slot kernel against the insertion
kernel, each forced by rebinding ``_SLOTS_FROM``, the one gate of the slot
kernels for the rows and the keys: they run when both the row count and the
width are at least ``_SLOTS_FROM``. A case is SAMPLES sets of random rows
over GF(p), so of rank min(rows, width) but for chance dependencies,
eliminated one after the other (one set alone makes the ratio depend on its
entries). Every row count is also a width, so each rank bound has square,
tall and wide cases. It prints a table by prime, the largest ratio, by
prime, among the cases whose rank bound min(rows, width) is b, and a line
giving the fewest b from which no case, at any prime, takes the slot kernel
more than TOLERANCE times the insertion kernel's time (a margin for timing
noise): the rule that sets ``_SLOTS_FROM``.

``--table codec`` times the package's two ways of converting a GF(2) row of
width 1 to ``_TABLE_WIDTH`` between tuple and code: its lookup tables
(``subspace._CODES`` and ``subspace._ROWS``, built at import) as they are,
against bytes translation, forced by rebinding ``_TABLE_WIDTH`` to 0, for
``_codes`` (packing, as the lime side and ``_product`` do, and flipped, as
the red side does) and for decoding (``_rows_of``: ``_ROWS`` against
``_wide_rows``) on the same random rows. It also prints translation's ns
per row. It checks which way is faster below the bound, not the bound
itself, which is set by the tables' build time at import (see its
comment); the last line says whether lookup is the faster way at every
width it covers.

    PYTHONPATH=src python3 scripts/kernel_crossover.py [--rounds 7] \
        [--table slots|codec]
"""

import argparse
import os
import random
import statistics
import timeit

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


def red_rows(**forced):
    """A kernel that runs ``_eliminate`` for the red rows of each row set of
    a case (samples, p)."""
    return (lambda samples, p: [subspace._eliminate(rows, len(rows[0]), p)
                                for rows in samples]), forced


PRIMES = (3, 5, 65521)
ROWS = (4, 5, 6, 7, 8, 9, 10, 12)
WIDTHS = ROWS + (16, 30)
SAMPLES = 4  # row sets per case
TOLERANCE = 1.05  # largest slot/insertion ratio still counted as no slower


def report(cases, median, rounds):
    print(f"red rows: slot kernel time / insertion kernel time, median of {rounds} rounds "
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
    print(f"\nred rows: slot kernel at most {TOLERANCE:.2f}x the insertion kernel's time for "
          f"every case from rank bound {max(slower, default=0) + 1} on (past {bounds[-1]} "
          f"unmeasured); _SLOTS_FROM is {subspace._SLOTS_FROM}")


def slots_table(rounds):
    """Median time ratio of the slot kernels to the insertion kernel for the
    red rows over odd p."""
    rng = random.Random(SEED)
    cases = {(p, n, m): ([[tuple(rng.randrange(p) for _ in range(m)) for _ in range(n)]
                          for _ in range(SAMPLES)], p)
             for p in PRIMES for n in ROWS for m in WIDTHS}
    median, _ = ratios(cases, red_rows(_SLOTS_FROM=1 << 30), red_rows(_SLOTS_FROM=1), rounds)
    report(cases, median, rounds)


CODEC_WIDTHS = range(1, subspace._TABLE_WIDTH + 1)
CODEC_ROWS = 64  # random rows per width
CODEC_OPS = {
    "pack": lambda rows, xs, n: subspace._codes(rows, n, False),
    "flip": lambda rows, xs, n: subspace._codes(rows, n, True),
    # each code indexed in the table _rows_of picks, as _eliminate and _product do
    "unpack": lambda rows, xs, n: list(map(subspace._rows_of(xs, n).__getitem__, xs)),
}


def convert(op, rows, xs, n):
    """A codec case's conversion: op, one of CODEC_OPS, on its rows or codes."""
    return op(rows, xs, n)


def codec_table(rounds):
    """Time ratios of the package's table lookup to translation by width."""
    rng = random.Random(SEED)
    cases = {}
    for n in CODEC_WIDTHS:
        rows = [tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(CODEC_ROWS)]
        xs = [rng.getrandbits(n) for _ in range(CODEC_ROWS)]
        cases.update({(n, op): (CODEC_OPS[op], rows, xs, n) for op in CODEC_OPS})
    ratio, medians = ratios(cases, (convert, {"_TABLE_WIDTH": 0}), (convert, {}), rounds)
    print(f"GF(2) row codec: table time / translation time, median of {rounds} rounds of "
          f"best-of-{REPEAT}, and translation's ns per row")
    print(f"{'width':>5}" + "".join(f"{op:>7} {'ns':>5}" for op in CODEC_OPS))
    for n in CODEC_WIDTHS:
        print(f"{n:5}" + "".join(f"{ratio[n, op]:7.2f} {medians[n, op][0] / CODEC_ROWS * 1e9:5.0f}"
                                 for op in CODEC_OPS))
    slower = sorted({n for n, op in ratio if ratio[n, op] >= 1})
    verdict = (f"not faster at width {', '.join(map(str, slower))} for some conversion"
               if slower else f"faster at every tabled width (1-{max(CODEC_WIDTHS)}) for "
               "every conversion")
    print(f"\ntable lookup {verdict}; _TABLE_WIDTH is {subspace._TABLE_WIDTH}")


TABLES = {"slots": slots_table, "codec": codec_table}


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
