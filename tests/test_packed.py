"""The one elimination and the product against the generic kernels.

``subspace._eliminate`` (red or lime side, rows or only keys) and
``subspace._product`` (behind ``@``, membership and ``apply_column_centric``)
pick the fast kernels, which README "Inside the kernels" and the ``subspace``
docstrings describe. Each is held by ``==`` to a referee. The elimination's
referee is the generic insertion kernel ``_insert_red``, which lives here,
in no package path. One run of it per case checks both sides and the kernel
(``_assert_red_matches``): the red rows and keys of the rows; the lime rows
and keys of the reversed rows, which are that red basis read backwards; the
rank where the case fixes it; and the kernel and pass each ``_eliminate``
call ran, literals pinning ``_SLOTS_FROM`` and ``_BAREISS_BITS``. The
product is held to ``_axpy``, and every public answer to the same calls
with the elimination swapped for the referee. The cases take GF(2), odd primes from one-byte
slots to the largest modulus, and Q rows of small entries, 200-bit
numerators or distinct large prime denominators; every row form the
callers pass; widths past one machine word, low rank, zero and repeated
rows, and row counts and widths on both sides of ``_SLOTS_FROM``. Four
sweeps, over every width, the lime shape, the keys about ``_SLOTS_FROM``
and the two-pass grid, share one helper and no case. Each Hypothesis
property is one test parametrized by field kind, drawing from one low-rank
matrix strategy (``MATRIX_KINDS``). White-box checks hold the GF(2) tables
to bytes translation, the slot values to the width asked for and the
reducer's bound, the reducer to ``v % p`` at the extreme slot values, the
residue codec to the generic byte layout, the slot layouts to one build per
shape and the Q keys pass's entries to Hadamard's bound; literals pin
``_TABLE_WIDTH``, the GF(65521) slot widths and the eliminations each
public call makes.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, inf, lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import redlime as rl
from redlime import duality, matrix, signatures, subspace
from redlime.errors import DomainError
from redlime.fields import MODULUS_LIMIT, _inverse, _is_prime, _random_scalar
from redlime.subspace import _axpy, _eliminate, _last_nonzero

from conftest import GF2, GF3, GF5, Q, random_matrix

WIDTHS = (1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 200)
# odd primes from one-byte slots to the largest modulus the fields accept
LARGEST_PRIME = 3317044064679887385961813
PRIMES = (3, 5, 65521, 2**61 - 1, LARGEST_PRIME)
GF65521 = rl.gf(65521)


def _insert_red(basis: dict, row: list, p):
    """The referee kernel: absorb one raw row into a red-basis dict keyed by
    0-based terminal position, by the generic raw row operation; p is the
    modulus, None over Q. Returns the new key when the row enlarged the
    span, else None. The dict stays canonical throughout: each stored row
    terminates with a 1 at its key and is zero at every other key."""
    t = _last_nonzero(row)
    while t is not None and t in basis:
        _axpy(row, row[t], basis[t], t + 1, p)  # basis[t] vanishes past t
        t = _last_nonzero(row, below=t)
    if t is None:
        return None
    if row[t] != 1:  # scale to end in 1: row * inv is row - (1 - inv) * row
        _axpy(row, 1 - _inverse(row[t], p), row, t + 1, p)
    for i in basis:  # clear surviving red entries below t
        if i < t and row[i]:
            _axpy(row, row[i], basis[i], i + 1, p)
    for piv in basis.values():  # clear the new red position from older rows
        if piv[t]:  # only rows at keys above t: the others end below it
            _axpy(piv, piv[t], row, t + 1, p)
    basis[t] = row
    return t


def _generic_red(rows, p):
    """The red basis the insertion kernel builds from the same raw rows, as
    ``_eliminate`` gives it: row tuples, keys ascending."""
    basis = {}
    for row in rows:
        _insert_red(basis, list(row), p)
    return {t: tuple(basis[t]) for t in sorted(basis)}


def _red(rows, p, keys_only=False):
    """``_eliminate`` on the red side of a sequence of raw rows, the width
    read off the first row; the keys of the rows it gives must ascend."""
    red = _eliminate(rows, len(rows[0]) if rows else 0, p, keys_only=keys_only)
    assert keys_only or list(red) == sorted(red)
    return red


def _generic_combination(field, coefficients, rows, m):
    """The sum of c·row over raw coefficients and raw rows of m entries, by
    the generic raw row operation."""
    acc = [field.zero.value] * m
    for c, src in zip(coefficients, rows):
        if c:
            _axpy(acc, -c, src, m, field.modulus)
    return acc


def _generic_matmul(a, b):
    """a @ b by the generic raw row operation, on raw rows read off the views."""
    b_rows = [[e.value for e in src] for src in b.rows]
    return rl.Matrix.from_values(a.field, [
        _generic_combination(a.field, [c.value for c in r], b_rows, b.ncols) for r in a.rows])


def _bits(x, n):
    return [x >> j & 1 for j in range(n)]


def _gf2_rows(rng, n, m, rank):
    """n rows of width m spanning at most ``rank`` dimensions, with some rows
    zero and some repeated."""
    base = [rng.getrandbits(m) for _ in range(rank)]
    rows = []
    for _ in range(n):
        x = 0
        for b in base:
            if rng.getrandbits(1):
                x ^= b
        rows.append(x)
    rows[rng.randrange(n)] = 0
    rows.append(rows[rng.randrange(n)])
    rng.shuffle(rows)
    return [tuple(_bits(x, m)) for x in rows]


def _translated(row, flip=False):
    """The code of a GF(2) row by bytes translation: entry j at bit
    n - 1 - j, or with flip at bit j."""
    digits = bytes(row).translate(subspace._DIGITS)
    return int(digits[::-1] if flip else digits, 2)


def _untranslated(x, n):
    """The row tuple of n entries of code x by bytes translation."""
    return tuple(bin(x | 1 << n)[3:].encode().translate(subspace._BITS))


def test_table_codec_matches_translation_at_every_tabled_row():
    """Every GF(2) row of width 1 to ``_TABLE_WIDTH``, as a tuple and as a
    list, converts by table as by translation, flipped or not; the tables
    are whole at import, and past their width translation takes over."""
    # _TABLE_WIDTH as a literal, so that the bound itself is pinned: a
    # change that retunes it updates this value and says so in CHANGES.md
    top = 8
    assert len(subspace._CODES) == 2 ** (top + 1) - 1
    for n in range(1, top + 4):
        rows = product((0, 1), repeat=n) if n <= top else (
            tuple(x >> j & 1 for j in range(n)) for x in (0, 1, 5, 2 ** n - 1))
        for row in rows:
            x, flipped = _translated(row), _translated(row, flip=True)
            for given in (row, list(row)):
                assert subspace._codes([given], n, False) == [x], given
                assert subspace._codes([given], n, True) == [flipped], given
            wide = subspace._wide_rows([x, flipped], n)
            assert wide[x] == _untranslated(x, n) == row and wide[flipped] == row[::-1]
            if n <= top:
                assert subspace._ROWS[n][x] == row and subspace._ROWS[n][flipped] == row[::-1]
            for lime in (False, True):
                rows_out = _eliminate([row], n, 2, lime=lime)
                assert list(rows_out.values()) == ([row] if any(row) else []), (row, lime)


# the sequences the callers of _eliminate pass; each referee run puts the
# reversal of the rows it is given through the lime side
ROW_FORMS = {
    "tuples": lambda rows: rows,
    "reversed": lambda rows: [r[::-1] for r in rows],
    "columns": lambda rows: list(zip(*rows)),
}


def _gfp_rows(rng, p, n, m, rank):
    """n rows of width m over GF(p) spanning at most ``rank`` dimensions:
    ``rank`` random rows, then sums of multiples of two earlier rows, with
    one row zero and one repeated."""
    rows = [[rng.randrange(p) for _ in range(m)] for _ in range(rank)]
    while len(rows) < n:
        c, d = rng.randrange(p), rng.randrange(p)
        rows.append([(c * x + d * y) % p for x, y in zip(rng.choice(rows), rng.choice(rows))])
    rows[rng.randrange(n)] = [0] * m
    rows.append(rows[rng.randrange(n)])
    rng.shuffle(rows)
    return [tuple(r) for r in rows]


def _rows_of_rank(rng, p, n, m, rank):
    """n rows of width m over GF(p) of rank exactly ``rank``: ``rank`` rows
    that each carry a 1 at a column where the others carry 0, then random
    combinations of those, shuffled."""
    pivots = rng.sample(range(m), rank)
    rows = []
    for i in range(rank):
        row = [rng.randrange(p) for _ in range(m)]
        for j, c in enumerate(pivots):
            row[c] = int(i == j)
        rows.append(row)
    while len(rows) < n:
        cs = [rng.randrange(p) for _ in range(rank)]
        rows.append([sum(c * b[j] for c, b in zip(cs, rows)) % p for j in range(m)])
    rng.shuffle(rows)
    return [tuple(r) for r in rows]


def _max_carry_rows(rng, p, m):
    """Rows that drive the unreduced slots toward their bound: one row per
    position, last position first, entries p - 1 but for a few 1s, with a
    1 at the terminating position. Then a row of ones and a row of p - 1,
    each cleared at every key, so each slot gains up to one product of two
    residues near p - 1 per key above it."""
    q = p - 1
    rows = [tuple([q if rng.random() < 0.99 else 1 for _ in range(t)]) + (1,) + (0,) * (m - 1 - t)
            for t in range(m - 1, -1, -1)]
    return rows + [(1,) * m, (q,) * m]


def _wide(rows, m):
    """Fewer rows than the m entries, from ``_max_carry_rows``: all but two
    of the one-per-position rows, then the two cleared at every key."""
    return rows[:m - 3] + rows[-2:]


@pytest.mark.parametrize("p", PRIMES)
def test_slot_red_at_the_largest_slot_values(rng, p):
    """Tall rows and wide ones, both through the two passes, on both sides."""
    for m in (8, 31, 64, 129, 200):
        rows = _max_carry_rows(rng, p, m)
        for shape in (rows, _wide(rows, m)):
            _assert_red_matches(shape, p)


def _bound(p, n):
    """The bits s below which every unreduced slot of a row of n entries
    over GF(p) stays in the slot kernels (proved in ``_echelon_slots``),
    and so the bound ``_slot_reducer`` takes: 2·bits(p) + bits(n)."""
    return 2 * p.bit_length() + n.bit_length()


def _packed(row, k):
    """The generic little-endian layout of a row in slots of k bytes: entry
    j in the k bytes from byte k·j, whatever its value."""
    return sum(v << 8 * k * j for j, v in enumerate(row))


def _slots(x, n, k):
    """The n slots of k bytes of a packed row, whatever their values."""
    mask = (1 << 8 * k) - 1
    return [x >> 8 * k * j & mask for j in range(n)]


def _watch_slots(monkeypatch):
    """Make every slot width the code asks for 8 bytes wider, and record the
    bits it asks for and, by bound s, the largest slot value handed to a
    slot reducer: a value past the reducer's bound, or past the width asked
    for, then shows instead of carrying into the next slot. Each reducer is
    built afresh, past the cache, which keeps only the real widths."""
    asked, given = [], {}
    slot_bytes, slot_reducer = subspace._slot_bytes, subspace._slot_reducer.__wrapped__

    def wider(bits):
        asked.append(bits)
        return slot_bytes(bits) + 8

    def watched_reducer(p, terms, n):
        k, reduce = slot_reducer(p, terms, n)
        s = _bound(p, terms)

        def watched_reduce(x):
            given[s] = max(given.get(s, 0), *_slots(x, n, k))
            return reduce(x)
        return k, watched_reduce

    monkeypatch.setattr(subspace, "_slot_bytes", wider)
    monkeypatch.setattr(subspace, "_slot_reducer", watched_reducer)
    return asked, given


@pytest.mark.parametrize("p", PRIMES)
def test_slot_values_stay_below_the_width_asked_for(rng, monkeypatch, p):
    """The eliminations, tall, wide and on the lime side, hand their
    reducer only slots below its bound; the product hands its reducer sums
    of len(rows) products, below that bound and the width it asks for."""
    asked, given = _watch_slots(monkeypatch)
    field, q = rl.gf(p), p - 1
    for m in (8, 31, 64, 129, 200):
        rows = _max_carry_rows(rng, p, m)
        calls = {
            "_red": lambda: _red(rows, p),
            "wide": lambda: _red(_wide(rows, m), p),
            "lime side": lambda: _eliminate(rows, m, p, lime=True),
        }
        for name, call in calls.items():
            given.clear()
            call()
            if name != "wide" or m > subspace._SLOTS_FROM:
                assert list(given) == [_bound(p, m)], (m, name)
                assert 0 < given[_bound(p, m)] < 2 ** _bound(p, m), (m, name)
        asked.clear()
        given.clear()
        rl.Matrix.from_values(field, [[q] * m] * 3) @ rl.Matrix.from_values(field, [[q] * 5] * m)
        s = _bound(p, m)  # m rows, so m terms a slot, in output rows of 5 slots
        assert len(asked) == 1 and list(given) == [s], m
        assert given[s] == m * q * q < min(2 ** s, 2 ** asked[0]), m


class _Watched(int):
    """A modulus that records the left operand of every ``% self``."""

    def __new__(cls, p, seen):
        watched = super().__new__(cls, p)
        watched.seen = seen
        return watched

    def __rmod__(self, v):
        self.seen.append(v)
        return v % int(self)


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_slot_values_stay_below_the_width_asked_for(rng, monkeypatch, p):
    """``_echelon_slots`` reads each slot by shift and mask and reduces it
    by ``% p``, so a modulus that records its left operands sees every slot
    value read; the reducer sees each row it stores, and that row scaled
    by an inverse. The lime side runs the pass on the reversed rows."""
    asked, given = _watch_slots(monkeypatch)
    for m in (8, 31, 64, 129, 200):
        rows = _max_carry_rows(rng, p, m)
        s = _bound(p, m)
        for lime in (False, True):
            seen = []
            asked.clear()
            given.clear()
            keys = _eliminate(rows, m, _Watched(p, seen), lime=lime, keys_only=True)
            assert set(keys) == set(range(m))
            assert len(asked) == 1 and 0 < max(seen) < 2 ** s, (m, lime)
            assert list(given) == [s] and 0 < given[s] < 2 ** s, (m, lime)


TWO_PASS_PRIMES = (3, 5, 65521)


def _max_back_substitution_rows(p, m):
    """Tall rows of width m and rank m - 1 whose back-substitution sums reach
    (m - 2)·(p - 1)² and more in slot 0: the rows terminating at t = m - 1
    down to 1, each with 1 at every position from 1 to t and (t·(p - 1))
    mod p at 0, so the echelon pass stores them as they come, each is
    cleared with coefficient p - 1 at every lower key, and the reduced row
    at key i holds p - 1 at 0. Then a zero row and a repeated row."""
    q = p - 1
    rows = [(t * q % p,) + (1,) * t + (0,) * (m - 1 - t) for t in range(m - 1, 0, -1)]
    return rows + [(0,) * m, rows[0]]


@pytest.mark.parametrize("p", TWO_PASS_PRIMES)
def test_back_substitution_sums_stay_below_the_width_asked_for(monkeypatch, p):
    """The sums reach the reducer below its bound on both sides, the echelon
    pass and back-substitution asking for one width."""
    asked, given = _watch_slots(monkeypatch)
    q = p - 1
    for m in (8, 31, 64, 129, 200):
        s = _bound(p, m)
        asked.clear()
        given.clear()
        assert len(_assert_red_matches(_max_back_substitution_rows(p, m), p)) == m - 1, m
        # one width, built for the echelon pass of each of the four calls and
        # for back-substitution in the two that output rows
        assert len(asked) == 6 and len(set(asked)) == 1, (m, asked)
        assert list(given) == [s] and (m - 2) * q * q <= given[s] < 2 ** s, m


@pytest.mark.parametrize("p", (2, *TWO_PASS_PRIMES))
def test_a_full_echelon_pass_gives_the_identity_without_back_substitution(monkeypatch, p):
    """The echelon pass is replaced by one that returns n rows no arithmetic
    accepts: a full pass must give the standard basis untouched, and one
    key short the back-substitution must reach the rows. Over odd p, n
    rows of n entries on each side of ``_SLOTS_FROM``: the slot and the
    list kernels."""
    s = subspace._SLOTS_FROM
    passes = {s + 1: "_echelon_bits"} if p == 2 else {
        s + 1: "_echelon_slots", s - 1: "_echelon_rows"}
    for n, echelon in passes.items():
        rows = [(1,) * n] * n
        identity = {t: tuple(int(i == t) for i in range(n)) for t in range(n)}
        for keys in (n, n - 1):
            monkeypatch.setattr(subspace, echelon, lambda *_: {t: object() for t in range(keys)})
            if keys == n:
                assert _red(rows, p) == identity, n
                assert _eliminate(rows, n, p, lime=True) == identity, n
            else:
                with pytest.raises((TypeError, AttributeError)):
                    _red(rows, p)


@pytest.mark.parametrize("p", PRIMES)
def test_slot_reducer_at_the_extreme_slot_values(monkeypatch, p):
    """Every slot value below 2**s, s = ``_bound(p, terms)``, reduces to
    ``v % p``, in rows of 1 to 200 slots, with as many terms as slots (the
    eliminations) and with fewer or more (the product), at the width
    ``_slot_reducer`` asks for and at every wider one up to 9 bytes, and at
    16 and 24: the extremes 0, p - 1, p, 3p - 1 and 2**s - 1, and two runs
    just below 2**s (one by 1, one by 2**(bits(p) - 1)), where its quotient
    estimate falls furthest short (two short for p = 5 at some s, three
    with 2**bits(p) in place of 2**(bits(p) - 1)). Every slot, pad bits
    included, must read back as the residue."""
    slot_bytes, step = subspace._slot_bytes, 2 ** (p.bit_length() - 1)
    shapes = ((1, 1), (8, 8), (100, 100), (200, 200), (1, 200), (200, 3))
    exact = {shape: subspace._slot_reducer(p, *shape)[0] for shape in shapes}
    for (terms, n), own in exact.items():
        s, run = _bound(p, terms), range(min(16 * p, 512))
        values = [0, p - 1, p, 3 * p - 1, *(2 ** s - 1 - i for i in run if i < 2 ** s),
                  *(2 ** s - 1 - i * step for i in run if i * step < 2 ** s)]
        rows = [[values[(i + j) % len(values)] for j in range(n)]
                for i in range(0, len(values), n)]
        for k in (*range(own, max(own, 9) + 1), *(k for k in (16, 24) if k > own)):
            monkeypatch.setattr(subspace, "_slot_bytes", lambda bits: max(k, slot_bytes(bits)))
            width, reduce = subspace._slot_reducer.__wrapped__(p, terms, n)
            assert width == k
            for row in rows:
                assert _slots(reduce(_packed(row, k)), n, k) == [v % p for v in row], (n, k)


@pytest.mark.parametrize("p", PRIMES)
def test_residue_codec_round_trips_at_every_width(rng, p):
    """The residue codec packs rows of 1 to 200 residues into the generic
    little-endian layout and reads them back as tuples: at the exact width
    for p - 1, up to 3 bytes wider, and at 8, 9 and 16 bytes where those
    hold p - 1."""
    exact = subspace._slot_bytes((p - 1).bit_length())
    for k in sorted({*range(exact, exact + 4), *(k for k in (8, 9, 16) if k >= exact)}):
        for n in (1, 2, 7, 100, 200):
            pack, unpack = subspace._codec(p, k, n)
            for row in ([0] * n, [p - 1] * n, [rng.randrange(p) for _ in range(n)]):
                for given in (row, tuple(row)):
                    x = pack(given)
                    assert x == _packed(row, k), (k, n)
                    assert unpack(x) == tuple(row), (k, n)


def test_slot_layouts_are_built_once_per_shape():
    """Two odd-p products of the same shape build one reducer and one codec."""
    subspace._slot_reducer.cache_clear()
    subspace._codec.cache_clear()
    a = rl.Matrix.from_values(GF5, [[1, 2, 3], [4, 0, 1]])
    b = rl.Matrix.from_values(GF5, [[1, 0, 2, 3], [0, 1, 4, 4], [2, 2, 0, 1]])
    assert a @ b == a @ b
    for built in (subspace._slot_reducer, subspace._codec):
        assert built.cache_info()[:2] == (1, 1), built  # (hits, misses)


def test_gf65521_slot_widths_are_pinned():
    # the widths as literals, so that the width rule itself is pinned: a
    # change that retunes it updates these values and says so in CHANGES.md
    widths = [subspace._slot_reducer(65521, n, n)[0] for n in (12, 100, 200)]
    assert widths == [6, 6, 7]


@pytest.mark.parametrize("p", (2, *PRIMES, None), ids=lambda p: "Q" if p is None else str(p))
def test_red_trivial_inputs(p):
    """No rows on either side, zero rows, one unit row of width 70, nine rows
    of width 70 that reduce to unit rows, the nine unit rows of width 9 last
    first and a zero row, which span F^9, and eighteen rows of width 9 with
    one key."""
    zero, one, minus = (0, 1, p - 1) if p else (Fraction(0), Fraction(1), Fraction(-1))
    units = [tuple(one if i == j else zero for j in range(70)) for i in range(70)]
    for lime in (False, True):
        assert _eliminate([], 5, p, lime=lime) == {}
        assert _eliminate([], 5, p, lime=lime, keys_only=True) == set()
    assert _red([(zero,) * 70] * 9, p) == {}
    assert _red([units[69]], p) == {69: units[69]}
    rows = [(minus,) + u[1:] for u in units[:9]]  # -e_1, then -e_1 + e_i for i = 2..9
    assert _red(rows, p) == dict(enumerate(units[:9]))
    eye = [u[:9] for u in units[:9]]
    assert _red(eye[::-1] + [(zero,) * 9], p) == dict(enumerate(eye))
    assert _red([(zero,) * 9, units[8][:9]] * 9, p, keys_only=True) == {8}


def test_largest_prime_is_the_largest_modulus():
    assert _is_prime(LARGEST_PRIME)
    assert not any(_is_prime(q) for q in range(LARGEST_PRIME + 1, MODULUS_LIMIT))


def _large_primes():
    """max(WIDTHS) distinct primes of 60 to 81 bits (``_is_prime`` is exact
    below MODULUS_LIMIT, about 2**81), drawn once from a fixed seed."""
    rng, primes = random.Random(81), set()
    while len(primes) < max(WIDTHS):
        q = rng.getrandbits(rng.randint(60, 81)) | 1 << 59 | 1
        if _is_prime(q):
            primes.add(q)
    return sorted(primes)


LARGE_PRIMES = _large_primes()

# row makers over Q: (rng, width) -> a row of Fractions
Q_ENTRIES = {
    "small": lambda rng, m: [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)],
    "200-bit numerators": lambda rng, m: [
        Fraction(rng.getrandbits(200) - 2**199, rng.randint(1, 2**16)) for _ in range(m)],
    # distinct primes in one row, so the row's lcm is their product
    "prime denominators": lambda rng, m: [
        Fraction(rng.randint(-2**20, 2**20), q) for q in rng.sample(LARGE_PRIMES, m)],
}


def _q_rows(rng, entry, n, m, rank):
    """n rows of width m over Q spanning at most ``rank`` dimensions:
    ``rank`` rows drawn by entry, then small-fraction combinations of two
    earlier rows, with one row zero and one repeated."""
    rows = [entry(rng, m) for _ in range(rank)]
    while len(rows) < n:
        c, d = (Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2))
        rows.append([c * x + d * y for x, y in zip(rng.choice(rows), rng.choice(rows))])
    rows[rng.randrange(n)] = [Fraction(0)] * m
    rows.append(rows[rng.randrange(n)])
    rng.shuffle(rows)
    return [tuple(r) for r in rows]


# ahead of the sweeps: on their Q cases, of rank up to 33, a pass without the
# exact division grows its entries for minutes and without bound in memory, so
# under scripts/mutants.py (pytest -x) this test must fail first
@pytest.mark.parametrize("numerators", (9, 2**200), ids=("small", "200-bit"))
def test_echelon_ints_entries_stay_within_hadamards_bound(rng, numerators):
    """``_echelon_ints`` divides each step exactly by the previous pivot, so
    the k-th row it stores is, at column j, up to sign the minor of the
    cleared rows stored so far on the first k - 1 keys and j: zero at those
    keys, and elsewhere of square at most the product of those rows'
    squared norms on those columns (Hadamard's bound). Without the division
    the keys stay the same, but the entries grow exponentially."""
    def entry(rng, m):
        return [Fraction(rng.randint(-numerators, numerators), rng.randint(1, 9))
                for _ in range(m)]

    for n, m, rank in ((12, 12, 12), (15, 10, 7), (6, 30, 6), (20, 8, 8)):
        rows = _q_rows(rng, entry, n, m, rank)
        ints, _ = subspace._cleared(rows)
        referee, stored = {}, []
        for row, x in zip(rows, ints):
            if _insert_red(referee, list(row), None) is not None:
                stored.append(x)
        basis = subspace._echelon_ints(ints)
        assert len(basis) == len(stored) == len(referee), (n, m)
        keys = []
        for k, (t, b) in enumerate(basis.items(), 1):
            norms = [sum(x[c] ** 2 for c in keys) for x in stored[:k]]
            for j, v in enumerate(b):
                bound = 0 if j in keys else prod(
                    w + x[j] ** 2 for w, x in zip(norms, stored[:k]))
                assert v * v <= bound, (n, m, k, j)
            keys.append(t)


# field kind -> (p, None for Q; a maker (rng, n, m, rank) of n rows of width m
# spanning at most ``rank`` dimensions, with one row zero and one repeated)
FIELD_KINDS = {
    "2": (2, _gf2_rows),
    **{str(p): (p, lambda rng, n, m, rank, p=p: _gfp_rows(rng, p, n, m, rank)) for p in PRIMES},
    **{f"Q-{name}": (None, lambda rng, n, m, rank, entry=entry: _q_rows(rng, entry, n, m, rank))
       for name, entry in Q_ENTRIES.items()},
}

# keeps the referee's cost in check: its row operations per case, n·rank·m, at
# most; none over GF(2), fewer over Q for larger entries
COSTS = {"2": inf, **{str(p): 200_000 for p in PRIMES},
         "Q-small": 40_000, "Q-200-bit numerators": 8_000, "Q-prime denominators": 4_000}


def _cases(rng, kind, lime=False):
    """(rows, None) over a field kind at every width, within the kind's
    cost: a few row counts and ranks, and m + 3 rows of rank 16 and of full
    rank; over GF(2) also 4 rows of rank 1, over Q m + 3 of rank 8; for the
    lime sweep m + 3 rows of rank m/2. Each has a zero and a repeated row."""
    p, make = FIELD_KINDS[kind]
    for m in WIDTHS:
        shapes = [(1, 1), (5, 1), (6, 3), (12, 12), (m + 3, 16), (m + 3, m)]
        if lime:
            shapes = [(m + 3, max(1, m // 2))]
        elif p == 2:
            shapes.append((4, 1))
        elif p is None:
            shapes.append((m + 3, 8))
        for n, rank in sorted({(n, min(rank, m)) for n, rank in shapes}):
            if n * rank * m <= COSTS[kind]:
                yield make(rng, n, m, rank), None


def _slots_from_cases(rng, kind, around=()):
    """(rows, their rank or None) over a field kind, within its cost: row
    counts about ``_SLOTS_FROM``, full rank and rank 2, at every width (over
    Q, which no gate splits, a few), or at widths ``around`` it also counts
    about and past the width, ranks one short and 1. Over GF(p) of exact
    rank, with a zero and a repeated row where the rank leaves room."""
    p, make = FIELD_KINDS[kind]
    s = subspace._SLOTS_FROM
    widths = (1, 2, s - 1, s, s + 1, 31, 65) if p is None else sorted({*WIDTHS, s - 1, s, s + 1})
    for m in around or widths:
        for n in sorted({s - 1, s, s + 1, *((m - 1, m, m + 1, m + 5) if around else ())}):
            ranks = {min(n, m), min(2, m), *((min(n, m) - 1, 1) if around else ())}
            for rank in sorted(ranks - {0}):
                if n * rank * m > COSTS[kind]:
                    continue
                if p is None:
                    yield make(rng, n, m, rank), None
                elif rank <= n - 2:
                    rows = _rows_of_rank(rng, p, n - 2, m, rank)
                    rows += [(0,) * m, rows[0]]
                    rng.shuffle(rows)
                    yield rows, rank
                else:
                    yield _rows_of_rank(rng, p, n, m, rank), rank


def _lime_read_back(red, n):
    """A red-basis dict of reversed rows of n entries, read backwards: the
    lime dict of the rows, indices ascending."""
    return {n - 1 - k: tuple(red[k][::-1]) for k in sorted(red, reverse=True)}


# the kernels _eliminate picks, by field: (the keys' echelon pass, the rows'
# two passes); over Q the rows' first pass is not the keys' pass
PASSES = {2: ("_echelon_bits", ("_echelon_bits", "_red_bits")),
          None: ("_echelon_ints", ("_int_basis", "_red_ints")),
          "slots": ("_echelon_slots", ("_echelon_slots", "_red_echelon_slots")),
          "lists": ("_echelon_rows", ("_echelon_rows", "_red_rows"))}


def _kernels_for(p, rows, keys_only):
    """The kernels an ``_eliminate`` call on these rows must run: the
    echelon pass alone for the keys, two passes for the rows; over odd p the
    slot kernels on at least 7 rows of at least 7 entries, and else the list
    kernels; over Q ``_int_basis`` for the keys instead once a row's lcm of
    denominators is past 157 bits."""
    nrows, n = len(rows), len(rows[0]) if rows else 0
    # _SLOTS_FROM and _BAREISS_BITS as literals, so that the gates themselves
    # are pinned: a change that retunes one updates its value and says so in
    # CHANGES.md
    kind = p if p in PASSES else "slots" if nrows >= 7 and n >= 7 else "lists"
    keys, both = PASSES[kind]
    if keys_only and p is None and any(
            lcm(*[v.denominator for v in r]) >> 157 for r in rows):
        return {"_int_basis"}
    return {keys} if keys_only else set(both)


def _watch_kernels(mp):
    """Rebind each kernel of ``_eliminate`` to one that records its name in
    the set returned. The integer phase must store only primitive rows, as
    ``_red_ints`` states (unnormalised ones give larger numbers)."""
    ran = set()

    def watched(name, kernel):
        def run(*args):
            ran.add(name)
            out = kernel(*args)
            assert name != "_int_basis" or all(gcd(*b) == 1 for b in out.values())
            return out
        return run

    for name in {k for keys, rows in PASSES.values() for k in (keys, *rows)}:
        mp.setattr(subspace, name, watched(name, getattr(subspace, name)))
    return ran


def _assert_red_matches(rows, p, rank=None):
    """One insertion-kernel run on raw rows referees both sides and the
    kernel: the red rows and keys of the rows; the lime rows and keys of the
    reversed rows, that red basis read backwards; the rank where it is
    given; and the kernels each of the four ``_eliminate`` calls ran. Over
    Q every entry must be a Fraction (an int would compare equal but is not
    the canonical raw value). Returns the red rows."""
    shape = (len(rows), len(rows[0]) if rows else 0)
    red = _generic_red(rows, p)
    sides = ((False, rows, red), (True, [r[::-1] for r in rows], _lime_read_back(red, shape[1])))
    with pytest.MonkeyPatch.context() as mp:
        ran = _watch_kernels(mp)
        for lime, given, expected in sides:
            for keys_only in (False, True):
                ran.clear()
                got = _eliminate(given, shape[1], p, lime, keys_only)
                if keys_only:
                    assert got == set(expected), (shape, lime)
                else:
                    assert list(got.items()) == list(expected.items()), (shape, lime)
                    assert p is not None or all(
                        type(v) is Fraction for row in got.values() for v in row)
                assert ran == _kernels_for(p, rows, keys_only), (shape, lime, keys_only, ran)
    assert rank is None or len(red) == rank, shape
    return red


def _sweep(rng, form, kind, cases):
    """Both sides and the kernel of each case. A case reversed swaps the
    rows each side sees, so tuples and reversed take every other case."""
    for i, (rows, rank) in enumerate(cases(rng, kind)):
        if form == "columns" or i % 2 == (form == "reversed"):
            _assert_red_matches(ROW_FORMS[form](rows), FIELD_KINDS[kind][0], rank)


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("form", sorted(ROW_FORMS))
def test_red_matches_insertion_kernel(rng, form, kind):
    _sweep(rng, form, kind, _cases)


@pytest.mark.parametrize("p", (2, *PRIMES, None), ids=lambda p: "Q" if p is None else str(p))
@pytest.mark.parametrize("form", sorted(ROW_FORMS))
def test_keys_match_the_insertion_kernel(rng, form, p):
    _sweep(rng, form, "Q-small" if p is None else str(p), _slots_from_cases)


@pytest.mark.parametrize("p", (2, 3, 65521, None), ids=lambda p: "Q" if p is None else str(p))
@pytest.mark.parametrize("form", sorted(ROW_FORMS))
def test_lime_helpers_match_the_red_basis_of_the_reversed_rows(rng, form, p):
    """Over GF(2) the lime side packs rows first entry highest, so at widths
    63, 64 and 65 a leading zero dropped would shift every entry."""
    _sweep(rng, form, "Q-small" if p is None else str(p), partial(_cases, lime=True))


@pytest.mark.parametrize("p", TWO_PASS_PRIMES)
def test_two_pass_red_matches_insertion_kernel(rng, p):
    """Tall, square or wide, full span or not, about ``_SLOTS_FROM`` and up
    to width 50: the slot kernels run from 7 rows of 7 entries on, the list
    kernels below."""
    s = subspace._SLOTS_FROM
    for rows, rank in _slots_from_cases(rng, str(p), (s - 1, s, s + 1, 12, 31, 50)):
        _assert_red_matches(rows, p, rank)


def test_int_red_single_entry_rows(rng):
    assert _assert_red_matches([(Fraction(-3, 7),)], None) == {0: (Fraction(1),)}
    for m in WIDTHS:
        rows = []
        for _ in range(min(m, 12)):  # one nonzero entry each, positions repeating
            row = [Fraction(0)] * m
            row[rng.randrange(m)] = Fraction(rng.choice((-1, 1)) * rng.getrandbits(200) + 1,
                                             rng.randint(1, 2**70))
            rows.append(tuple(row))
        red = _assert_red_matches(rows, None)
        assert red == {j: tuple(Fraction(int(i == j)) for i in range(m))
                       for j in {_last_nonzero(r) for r in rows}}
    units = [tuple(Fraction(int(i == j)) for j in range(9)) for i in range(9)]
    scaled = [tuple(Fraction(5, 3) * v for v in u) for u in units]
    assert _assert_red_matches(scaled + scaled[::-1], None) == dict(enumerate(units))


@st.composite
def low_rank_matrices(draw, fields, nrows, ncols):
    """Matrices over one of fields whose rows combine a few drawn rows, so
    low rank, zero rows and repeated rows all come up. Over GF(2) a row is
    drawn as an int, its bits the entries; over Q entries are small
    fractions or up to 200-bit numerators, coefficients small fractions."""
    field = draw(st.sampled_from(fields))
    p, n, m = field.modulus, draw(nrows), draw(ncols)
    if p == 2:
        base = draw(st.lists(st.integers(0, 2 ** m - 1), min_size=1, max_size=n))
        rows = []
        for _ in range(n):
            pick = draw(st.integers(0, 2 ** len(base) - 1))
            x = 0
            for i, b in enumerate(base):
                if pick >> i & 1:
                    x ^= b
            rows.append(_bits(x, m))
        return rl.Matrix.from_values(field, rows)
    if p is None:
        entry = st.builds(Fraction, st.integers(-9, 9) | st.integers(-2**200, 2**200),
                          st.integers(1, 9) | st.integers(1, 2**64))
        coefficient = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    else:
        entry = coefficient = st.integers(0, p - 1)
    base = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=n))
    coefficients = st.lists(coefficient, min_size=len(base), max_size=len(base))
    rows = []
    for _ in range(n):
        cs = draw(coefficients)
        rows.append([sum(c * b[j] for c, b in zip(cs, base)) for j in range(m)])
    return rl.Matrix.from_values(field, rows)  # reduced mod p on the way in


# field kind -> (fields, row counts, widths) drawn by low_rank_matrices; odd p
# row counts and widths fall on both sides of _SLOTS_FROM
MATRIX_KINDS = {
    "GF2": ((GF2,), st.integers(1, 10), st.integers(1, 130)),
    "odd-p": ((GF3, GF5, GF65521), st.integers(1, 14), st.integers(1, 40)),
    "Q": ((Q,), st.integers(1, 8), st.integers(1, 12)),
}


def _or_error(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return type(exc)


def _answers(a):
    w = rl.row_space(a)
    return (rl.rref(a), rl.nullspace(a), rl.rank(a), rl.pivot_columns(a),
            rl.dependent_columns(a), w,
            rl.column_space(a), rl.lime_basis(w), rl.complement(w), rl.signature(w),
            _or_error(rl.full_rank_factorization, a),
            _or_error(rl.rref_factorization, a), _or_error(rl.rref_factorization, a, True),
            _or_error(rl.rcef_factorization, a), _or_error(rl.rcef_factorization, a, True))


def _generic_eliminate(rows, n, p, lime=False, keys_only=False):
    """What ``_eliminate`` gives, by the insertion kernel: on the lime side
    on the reversed rows, read backwards."""
    rows = list(rows)
    if lime:
        answer = _lime_read_back(_generic_red([r[::-1] for r in rows], p), n)
    else:
        answer = _generic_red(rows, p)
    return set(answer) if keys_only else answer


ELIMINATING_MODULES = (subspace, duality, matrix, signatures)  # each binds _eliminate


def _count_eliminations(mp, eliminate=_eliminate):
    """Rebind ``_eliminate`` wherever the package binds it to eliminate, and
    record (p, lime, keys_only) for each call."""
    calls = []

    def counted(rows, n, p, lime=False, keys_only=False):
        calls.append((p, lime, keys_only))
        return eliminate(rows, n, p, lime, keys_only)

    for module in ELIMINATING_MODULES:
        mp.setattr(module, "_eliminate", counted)
    return calls


@pytest.mark.parametrize("kind", sorted(MATRIX_KINDS))
@given(data=st.data())
def test_answers_match_the_generic_kernel(kind, data):
    """a's rows pass the referee on both sides, every answer is the same
    when the elimination is the insertion kernel, and each side, for rows
    and for keys, was asked for."""
    a = data.draw(low_rank_matrices(*MATRIX_KINDS[kind]))
    _assert_red_matches(a._raw, a.field.modulus)
    packed = _answers(a)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_eliminations(mp, _generic_eliminate)
        generic = _answers(a)
    assert {p for p, _, _ in calls} == {a.field.modulus}
    assert {(lime, keys_only) for _, lime, keys_only in calls} == {
        (False, False), (False, True), (True, False), (True, True)}
    assert packed == generic


LIME_ROWS, LIME_KEYS = (2, True, False), (2, True, True)
RED_ROWS, RED_KEYS = (2, False, False), (2, False, True)


def test_each_public_call_makes_its_known_eliminations():
    """On a 3×4 GF(2) matrix, the (p, lime, keys_only) of every elimination
    each public call asks for: one each, and two for a complete echelon
    factorization (the lime rows of the rows, the lime keys of the columns)."""
    a = rl.Matrix.from_values(GF2, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]])
    w = rl.row_space(a)
    independent = [rl.Vector.from_values(GF2, r) for r in ([0, 1, 1, 0], [1, 0, 0, 1])]
    expected = {
        "rref": (lambda: rl.rref(a), [LIME_ROWS]),
        "nullspace": (lambda: rl.nullspace(a), [LIME_ROWS]),
        "complement": (lambda: rl.complement(w), [LIME_ROWS]),
        "rank": (lambda: rl.rank(a), [RED_KEYS]),
        "pivot_columns": (lambda: rl.pivot_columns(a), [LIME_KEYS]),
        "signature": (lambda: rl.signature(w), [LIME_KEYS]),
        "span_red_basis": (lambda: rl.span_red_basis(a.row_vectors()), [RED_ROWS]),
        "extend_rows_to_invertible": (
            lambda: rl.extend_rows_to_invertible(independent), [LIME_KEYS]),
        "rref_factorization": (
            lambda: rl.rref_factorization(a, complete=True), [LIME_ROWS, LIME_KEYS]),
    }
    for name, (call, eliminations) in expected.items():
        plain = call()
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_eliminations(mp)
            assert call() == plain, name
        assert calls == eliminations, name


@pytest.mark.parametrize("kind", sorted(MATRIX_KINDS))
@given(data=st.data())
def test_matmul_matches_the_generic_row_operation(kind, data):
    a = data.draw(low_rank_matrices(*MATRIX_KINDS[kind]))
    b = data.draw(low_rank_matrices((a.field,), st.just(a.ncols), st.integers(1, 12)))
    assert a @ b == _generic_matmul(a, b)
    assert a.transpose() @ a == _generic_matmul(a.transpose(), a)


@pytest.mark.parametrize("field", (GF2, GF3, GF5, GF65521, Q), ids=str)
def test_membership_and_column_products_match_the_generic_row_operation(rng, field):
    """contains_vector, coordinates, element_from_red_entries and
    apply_column_centric all go through ``_product``; the zero subspace
    sends it an empty row list."""
    def raw(n):
        return [_random_scalar(field, rng, 6).value for _ in range(n)]

    for m in (1, 4, 9, 33, 70):
        for rank in sorted({0, 1, min(3, m), m}):
            base = [raw(m) for _ in range(rank)]
            w = rl.span_red_basis([rl.Vector.from_values(field, r) for r in base], m, field)
            red = [v._raw for v in w.red_basis]
            coefficients = raw(w.dimension)
            member = _generic_combination(field, coefficients, red, m)
            assert rl.element_from_red_entries(w, coefficients)._raw == tuple(member)
            for x in (member, raw(m)):
                x = rl.Vector.from_values(field, x)
                at_red = [x._raw[i - 1] for i in w.red_indices]
                inside = _generic_combination(field, at_red, red, m) == list(x._raw)
                assert rl.contains_vector(w, x) == inside, (m, rank)
                if inside:
                    assert [c.value for c in rl.coordinates(w, x)] == at_red
                else:
                    with pytest.raises(DomainError):
                        rl.coordinates(w, x)
            a = rl.Matrix.from_values(field, [raw(m) for _ in range(rank + 1)])
            x = rl.Vector.from_values(field, raw(m))
            column_product = _generic_combination(field, x._raw, list(zip(*a._raw)), a.nrows)
            assert rl.apply_column_centric(a, x)._raw == tuple(column_product), (m, rank)
            assert rl.apply_column_centric(a, x) == rl.apply_row_centric(a, x)


def test_packed_rref_matches_textbook_on_a_large_matrix(rng):
    b = random_matrix(GF2, 100, 75, rng)
    c = random_matrix(GF2, 75, 100, rng)
    a = b @ c
    assert a == _generic_matmul(b, c)
    assert rl.rank(a) == 75
    assert rl.rref(a) == rl.textbook_rref(a)
