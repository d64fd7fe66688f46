"""The packed GF(2) elimination and product against the generic kernels.

Over GF(2), ``subspace._red`` and ``Matrix.__matmul__`` work on rows packed
into ints. ``_insert_red`` and ``_axpy`` still serve every other field; here
they referee the packed path on wide rows (past one machine word), low rank,
zero and duplicate rows, and every row form the callers pass.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import redlime as rl
from redlime import duality, matrix, signatures, subspace
from redlime.errors import DomainError
from redlime.subspace import _axpy, _insert_red, _red

from conftest import GF2, random_matrix

WIDTHS = (1, 2, 3, 4, 5, 8, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 200)


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
                _axpy(acc, -c.value, src, b.ncols, 2)
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


@given(gf2_matrices())
def test_packed_answers_match_the_generic_kernel(a):
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
    assert calls and set(calls) == {2}
    assert packed == generic


@given(gf2_matrices(), st.data())
def test_packed_matmul_matches_the_generic_row_operation(a, data):
    b = data.draw(gf2_matrices(nrows=st.just(a.ncols), ncols=st.integers(1, 12)))
    assert a @ b == _generic_matmul(a, b)
    assert a.transpose() @ a == _generic_matmul(a.transpose(), a)


def test_packed_rref_matches_textbook_on_a_large_matrix(rng):
    b = random_matrix(GF2, 100, 75, rng)
    c = random_matrix(GF2, 75, 100, rng)
    a = b @ c
    assert a == _generic_matmul(b, c)
    assert rl.rank(a) == 75
    assert rl.rref(a) == rl.textbook_rref(a)
