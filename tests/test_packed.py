"""The packed eliminations and products against the generic kernels.

``subspace._red`` and ``Matrix.__matmul__`` work on rows packed into ints:
as bits over GF(2), and in wide slots over odd p, where a row operation is
one multiply-add and slots are reduced only when a row is unpacked.
``_insert_red`` and ``_axpy`` still serve Q; here they referee both packed
paths on wide rows (past one machine word), low rank, zero and duplicate
rows, rows that drive the unreduced slots to their largest values, and
every row form the callers pass.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import redlime as rl
from redlime import duality, matrix, signatures, subspace
from redlime.errors import DomainError
from redlime.fields import MODULUS_LIMIT, _is_prime
from redlime.subspace import _axpy, _insert_red, _red

from conftest import GF2, GF3, GF5, random_matrix

WIDTHS = (1, 2, 3, 4, 5, 8, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 200)
# odd primes from one-byte slots to the largest modulus the fields accept
LARGEST_PRIME = 3317044064679887385961813
PRIMES = (3, 5, 65521, 2**61 - 1, LARGEST_PRIME)
GF65521 = rl.gf(65521)


def _generic_red(rows, p):
    """The red-basis dict the insertion kernel builds from the same raw rows."""
    basis = {}
    for row in rows:
        _insert_red(basis, list(row), p)
    return basis


def _generic_matmul(a, b):
    """a @ b by the generic raw row operation, on raw rows read off the views."""
    b_rows = [[e.value for e in src] for src in b.rows]
    out = []
    for r in a.rows:
        acc = [0] * b.ncols
        for c, src in zip(r, b_rows):
            if c:
                _axpy(acc, -c.value, src, b.ncols, a.field.modulus)
        out.append(acc)
    return rl.Matrix.from_values(a.field, out)


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


ROW_FORMS = {
    "tuples": lambda rows: rows,
    "reversed": lambda rows: map(reversed, rows),
    "columns": lambda rows: zip(*rows),
}


@pytest.mark.parametrize("form", sorted(ROW_FORMS))
def test_packed_red_matches_insertion_kernel(rng, form):
    make = ROW_FORMS[form]
    for m in WIDTHS:
        for n, rank in ((1, 1), (4, 1), (6, 3), (12, 12), (m + 3, m), (m + 3, max(1, m // 2))):
            rows = _gf2_rows(rng, n, m, rank)
            assert _red(make(rows), 2) == _generic_red(make(rows), 2), (m, n, rank)


def test_packed_red_trivial_inputs():
    assert _red([], 2) == {}
    zero = (0,) * 70
    assert _red([zero, zero], 2) == {}
    e70 = zero[:69] + (1,)
    assert _red([e70], 2) == {69: [0] * 69 + [1]}


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


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("form", sorted(ROW_FORMS))
def test_slot_red_matches_insertion_kernel(rng, form, p):
    make = ROW_FORMS[form]
    for m in WIDTHS:
        for n, rank in ((1, 1), (5, 1), (6, 3), (12, 12), (m + 3, 16), (m + 3, m)):
            if n * min(rank, m) * m > 200_000:  # keeps the generic referee's cost in check
                continue
            rows = _gfp_rows(rng, p, n, m, min(rank, m))
            assert _red(make(rows), p) == _generic_red(make(rows), p), (m, n, rank)


def _max_carry_rows(rng, p, m):
    """Rows that drive the unreduced slots toward their bound: one row per
    position, last position first, so each stored row gains a multiple of
    every later row; entries are p - 1 but for a few 1s, with a 1 at the
    terminating position. Then a row of ones and a row of p - 1, each
    cleared at every key."""
    q = p - 1
    rows = [tuple([q if rng.random() < 0.99 else 1 for _ in range(t)]) + (1,) + (0,) * (m - 1 - t)
            for t in range(m - 1, -1, -1)]
    return rows + [(1,) * m, (q,) * m]


@pytest.mark.parametrize("p", PRIMES)
def test_slot_red_at_the_largest_slot_values(rng, p):
    for m in (8, 31, 64, 129, 200):
        rows = _max_carry_rows(rng, p, m)
        for form in ("tuples", "reversed"):
            make = ROW_FORMS[form]
            assert _red(make(rows), p) == _generic_red(make(rows), p), (m, form)


def test_slot_red_trivial_inputs():
    assert _red([], 5) == {}
    assert _red([(0,) * 70] * 9, 5) == {}
    units = [[int(i == j) for j in range(70)] for i in range(9)]
    rows = [(4,) + tuple(u[1:]) for u in units]  # 4 e_1, then 4 e_1 + e_i for i = 2..9
    assert _red(rows, 5) == dict(enumerate(units))


def test_largest_prime_is_the_largest_modulus():
    assert _is_prime(LARGEST_PRIME)
    assert not any(_is_prime(q) for q in range(LARGEST_PRIME + 1, MODULUS_LIMIT))


@st.composite
def gf2_matrices(draw, nrows=st.integers(1, 10), ncols=st.integers(1, 130)):
    """GF(2) matrices whose rows combine a few drawn rows, so low rank, zero
    rows and repeated rows all come up."""
    n = draw(nrows)
    m = draw(ncols)
    base = draw(st.lists(st.integers(0, 2 ** m - 1), min_size=1, max_size=n))
    rows = []
    for _ in range(n):
        pick = draw(st.integers(0, 2 ** len(base) - 1))
        x = 0
        for i, b in enumerate(base):
            if pick >> i & 1:
                x ^= b
        rows.append(_bits(x, m))
    return rl.Matrix.from_values(GF2, rows)


def _or_error(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return type(exc)


def _answers(a):
    w = rl.row_space(a)
    return (rl.rref(a), rl.nullspace(a), rl.rank(a), rl.pivot_columns(a), w,
            rl.column_space(a), rl.lime_basis(w), rl.complement(w), rl.signature(w),
            _or_error(rl.full_rank_factorization, a),
            _or_error(rl.rref_factorization, a), _or_error(rl.rref_factorization, a, True),
            _or_error(rl.rcef_factorization, a), _or_error(rl.rcef_factorization, a, True))


@st.composite
def gfp_matrices(draw, fields=st.sampled_from((GF3, GF5, GF65521)),
                 nrows=st.integers(1, 14), ncols=st.integers(1, 40)):
    """Matrices over odd p whose rows combine a few drawn rows; most reach
    the rank at which the slot kernel takes over."""
    field = draw(fields)
    p, n, m = field.modulus, draw(nrows), draw(ncols)
    row = st.lists(st.integers(0, p - 1), min_size=m, max_size=m)
    base = draw(st.lists(row, min_size=1, max_size=n))
    coefficients = st.lists(st.integers(0, p - 1), min_size=len(base), max_size=len(base))
    rows = []
    for _ in range(n):
        cs = draw(coefficients)
        rows.append([sum(c * b[j] for c, b in zip(cs, base)) % p for j in range(m)])
    return rl.Matrix.from_values(field, rows)


def _assert_answers_match_the_generic_kernel(a):
    packed = _answers(a)
    calls = []

    def counted(rows, p):
        calls.append(p)
        return _generic_red(rows, p)

    with pytest.MonkeyPatch.context() as mp:
        for module in (subspace, duality, matrix, signatures):
            if hasattr(module, "_red"):
                mp.setattr(module, "_red", counted)
        generic = _answers(a)
    assert calls and set(calls) == {a.field.modulus}
    assert packed == generic


@given(gf2_matrices())
def test_packed_answers_match_the_generic_kernel(a):
    _assert_answers_match_the_generic_kernel(a)


@given(gfp_matrices())
def test_slot_answers_match_the_generic_kernel(a):
    _assert_answers_match_the_generic_kernel(a)


@given(gf2_matrices(), st.data())
def test_packed_matmul_matches_the_generic_row_operation(a, data):
    b = data.draw(gf2_matrices(nrows=st.just(a.ncols), ncols=st.integers(1, 12)))
    assert a @ b == _generic_matmul(a, b)
    assert a.transpose() @ a == _generic_matmul(a.transpose(), a)


@given(gfp_matrices(), st.data())
def test_slot_matmul_matches_the_generic_row_operation(a, data):
    b = data.draw(gfp_matrices(fields=st.just(a.field), nrows=st.just(a.ncols),
                               ncols=st.integers(1, 12)))
    assert a @ b == _generic_matmul(a, b)
    assert a.transpose() @ a == _generic_matmul(a.transpose(), a)


def test_packed_rref_matches_textbook_on_a_large_matrix(rng):
    b = random_matrix(GF2, 100, 75, rng)
    c = random_matrix(GF2, 75, 100, rng)
    a = b @ c
    assert a == _generic_matmul(b, c)
    assert rl.rank(a) == 75
    assert rl.rref(a) == rl.textbook_rref(a)
