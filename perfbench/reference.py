"""Gauges of how fast the machine runs Python at the moment.

On a shared machine the speed of pure-Python code drifts by tens of percent
within a minute as neighbours load the cores; the drift moves every op of a
run alike. The benchmark samples a gauge between ops and scales each op
latency by the gauge's nominal time over its time around that op, so times
are reported at one fixed nominal machine speed.

The gauges: ``KERNEL``, a fixed pure-Python kernel, for ops that run in
the benchmark's process and for building inputs at set-up; ``RATIONAL``, the
geometric mean of that kernel and one of multi-word integer products and
gcds, for ops over Q, whose big-integer arithmetic drifts less than the
pure-Python kernel does; ``PROCESS_START``,
a bare interpreter start, for ops that are child processes, whose cost is
mostly process start and import and drifts with it rather than with the
kernel; ``IMPORT``, a fresh import of a few standard modules, for the import
of redlime at set-up, which reads bytecode files and runs module bodies and
on a loaded machine slows by up to twice as much as the kernel. None uses
anything from redlime, so no change to the program moves them.
"""

from __future__ import annotations

import importlib
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

_P = 65521
_rng = random.Random(2403_13957)
_MATRIX = [[_rng.randrange(_P) for _ in range(14)] for _ in range(14)]
_FRACTIONS = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(60)]
_BIG = [_rng.getrandbits(256) | 1 for _ in range(40)]


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _kernel():
    # modular elimination: list indexing, int arithmetic, pow
    rows = [list(r) for r in _MATRIX]
    for col in range(len(rows)):
        inv = pow(rows[col][col], -1, _P)
        for i in range(col + 1, len(rows)):
            f = rows[i][col] * inv % _P
            if f:
                rows[i] = [(x - f * y) % _P for x, y in zip(rows[i], rows[col])]
    # rational arithmetic, small objects and a dict
    acc = Fraction(0)
    for x in _FRACTIONS:
        acc += x * x
    cells = {i: _Cell(i, acc) for i in range(300)}
    return rows, cells


# Pure-Python standard modules that neither the benchmark nor redlime loads.
_IMPORT_MODULES = ("configparser", "difflib", "glob", "optparse", "pprint", "shlex", "tomllib")
_IMPORT_TOPS = {name.split(".")[0] for name in _IMPORT_MODULES}


def _fresh_import():
    for name in [n for n in sys.modules if n.split(".")[0] in _IMPORT_TOPS]:
        del sys.modules[name]
    for name in _IMPORT_MODULES:
        importlib.import_module(name)


def _bigint_kernel():
    # products and gcds of multi-word integers, as in exact rational arithmetic
    acc = 0
    for x in _BIG:
        for y in _BIG[:10]:
            acc += math.gcd(x * y, acc + x)
    return acc


def _rational_sample() -> int:
    return round(math.sqrt(_best_ns(_kernel, 3) * _best_ns(_bigint_kernel, 2)))


def _bare_start():
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                   capture_output=True, check=True, timeout=60)


def _best_ns(fn, repeats) -> int:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


@dataclass(frozen=True)
class Gauge:
    sample: Callable[[], int]   # current gauge time, ns
    nominal_ns: int             # its time on the machine the baseline was taken on
    every_ns: int = 0           # op time between two samples, for gauges of ops

    def scale(self, before_ns: int, after_ns: int) -> float:
        """Factor that converts a time measured between two samples to
        nominal machine speed."""
        return 2 * self.nominal_ns / (before_ns + after_ns)


KERNEL = Gauge(lambda: _best_ns(_kernel, 3), 800_000, 20_000_000)
RATIONAL = Gauge(_rational_sample, 1_000_000, 20_000_000)
PROCESS_START = Gauge(lambda: _best_ns(_bare_start, 2), 70_000_000, 1_000_000_000)
IMPORT = Gauge(lambda: _best_ns(_fresh_import, 1), 7_500_000)


# Gauge samples taken on each side of a timed call; the fastest is used. A
# single kernel sample (best of three runs) jitters by about a fifth, which
# would swamp a call of a few hundred milliseconds timed between two of them.
TIMED_SAMPLES = 5


def timed(fn, gauge=KERNEL):
    """Run ``fn()``; returns its result and its seconds at nominal speed (by
    ``gauge``)."""
    before = min(gauge.sample() for _ in range(TIMED_SAMPLES))
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    after = min(gauge.sample() for _ in range(TIMED_SAMPLES))
    return out, seconds * gauge.scale(before, after)
