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

``--table slots`` (the default) times the red rows of
``subspace._eliminate`` over odd p, the slot kernels against the list
kernels (the same two passes on residue lists), each forced by rebinding
``_SLOTS_FROM``, the one gate of the slot kernels for the rows and the
keys: they run when both the row count and the width are at least
``_SLOTS_FROM``. A case is SAMPLES sets of random rows over GF(p), so of
rank min(rows, width) but for chance dependencies, eliminated one after
the other (one set alone makes the ratio depend on its entries). Every row
count is also a width, so each rank bound has square, tall and wide cases.
It prints a table by prime, the largest ratio, by prime, among the cases
whose rank bound min(rows, width) is b, and a line giving the fewest b from
which no case, at any prime, takes the slot kernels more than TOLERANCE
times the list kernels' time (a margin for timing noise): the rule that
sets ``_SLOTS_FROM``.

``--table bareiss`` times the keys of ``subspace._eliminate`` over Q, the
Bareiss pass ``_echelon_ints`` against ``_int_basis``, each forced by
rebinding ``_BAREISS_BITS``, the size in bits past which a row's lcm of
denominators sends the keys to ``_int_basis``; both run on the same
cleared rows. A case is Q_SAMPLES row sets of one shape (rows, width,
rank): ``rank`` rows of entries a/q, |a| <= 9, q up to 2**b, then
small-fraction combinations of two earlier rows. It prints the ratio and
the largest row lcm, in bits, of every case by b and shape, and a line
giving the largest lcm up to which no case takes the Bareiss pass more
than TOLERANCE times ``_int_basis``'s time: the rule that sets
``_BAREISS_BITS``.

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
        [--table slots|bareiss|codec]
"""

import argparse
import os
import random
import statistics
import timeit
from fractions import Fraction
from math import lcm

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
TOLERANCE = 1.05  # largest slot/list ratio still counted as no slower


def report(cases, median, rounds):
    print(f"red rows: slot kernels' time / list kernels' time, median of {rounds} rounds "
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
    print(f"\nred rows: slot kernels at most {TOLERANCE:.2f}x the list kernels' time for "
          f"every case from rank bound {max(slower, default=0) + 1} on (past {bounds[-1]} "
          f"unmeasured); _SLOTS_FROM is {subspace._SLOTS_FROM}")


def slots_table(rounds):
    """Median time ratio of the slot kernels to the list kernels for the
    red rows over odd p."""
    rng = random.Random(SEED)
    cases = {(p, n, m): ([[tuple(rng.randrange(p) for _ in range(m)) for _ in range(n)]
                          for _ in range(SAMPLES)], p)
             for p in PRIMES for n in ROWS for m in WIDTHS}
    median, _ = ratios(cases, red_rows(_SLOTS_FROM=1 << 30), red_rows(_SLOTS_FROM=1), rounds)
    report(cases, median, rounds)


DEN_BITS = (2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 64)
Q_SHAPES = ((6, 6, 6), (12, 12, 9), (16, 16, 12), (24, 24, 12), (32, 32, 16), (8, 24, 8),
            (24, 8, 8))
Q_SAMPLES = 2  # row sets per case


def q_keys(**forced):
    """A kernel that runs ``_eliminate`` for the keys of each row set of a
    case over Q."""
    return (lambda samples: [subspace._eliminate(rows, len(rows[0]), None, keys_only=True)
                             for rows in samples]), forced


def q_rows(rng, b, n, m, rank):
    """n rows of width m over Q spanning at most ``rank`` dimensions, whose
    first ``rank`` rows have denominators up to 2**b."""
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 2**b)) for _ in range(m)]
            for _ in range(rank)]
    while len(rows) < n:
        c, d = (Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2))
        rows.append([c * x + d * y for x, y in zip(rng.choice(rows), rng.choice(rows))])
    rng.shuffle(rows)
    return [tuple(r) for r in rows]


def bareiss_table(rounds):
    """Median time ratio of the Bareiss keys pass to ``_int_basis`` over Q,
    by denominator size and shape."""
    rng = random.Random(SEED)
    cases = {(b, shape): ([q_rows(rng, b, *shape) for _ in range(Q_SAMPLES)],)
             for b in DEN_BITS for shape in Q_SHAPES}
    bits = {case: max(lcm(*[v.denominator for v in row]).bit_length()
                      for rows in args[0] for row in rows)
            for case, args in cases.items()}
    median, _ = ratios(cases, q_keys(_BAREISS_BITS=0), q_keys(_BAREISS_BITS=1 << 20), rounds)
    print(f"Q keys: Bareiss pass time / _int_basis time, median of {rounds} rounds of "
          f"best-of-{REPEAT}, and [the largest row lcm in bits]; denominators up to 2**b")
    print("   b" + "".join(f"{f'{n}x{m} r{r}':>16}" for n, m, r in Q_SHAPES))
    for b in DEN_BITS:
        print(f"{b:4}" + "".join(f"{median[b, s]:9.2f} [{bits[b, s]:4}]" for s in Q_SHAPES))
    order = sorted(cases, key=bits.get)
    slower = next((case for case in order if median[case] > TOLERANCE), None)
    cap = max([bits[c] for c in order if bits[c] < bits[slower]] if slower else bits.values(),
              default=0)
    past = (f"the next case, at {bits[slower]} bits, read {median[slower]:.2f}" if slower
            else "past it unmeasured")
    print(f"\nQ keys: Bareiss pass at most {TOLERANCE:.2f}x _int_basis's time for every case "
          f"whose row lcms are at most {cap} bits ({past}); _BAREISS_BITS is "
          f"{subspace._BAREISS_BITS}")


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


TABLES = {"slots": slots_table, "bareiss": bareiss_table, "codec": codec_table}


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
