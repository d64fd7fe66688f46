import itertools

import pytest
from hypothesis import given

import redlime as rl
from redlime.cli import _dependent_columns_by_prefix
from redlime.errors import DomainError

from conftest import GF2, GF3, GF5, Q, mat, matrices, span_of, vec

A_GF2 = mat(GF2, [[1, 1, 0], [0, 1, 1]])
B_GF2 = mat(GF2, [[1, 1, 0], [1, 1, 0], [0, 1, 1]])
RANK1_Q = mat(Q, [[1, 2], [2, 4]])


def test_apply_examples():
    x = vec(GF2, 1, 1, 1)
    assert rl.apply_row_centric(A_GF2, x) == vec(GF2, 0, 0)
    assert rl.apply_column_centric(A_GF2, x) == vec(GF2, 0, 0)
    eye = rl.Matrix.identity(Q, 3)
    y = vec(Q, 3, -1, 2)
    assert rl.apply_row_centric(eye, y) == y
    for j in range(1, 4):
        e = rl.Vector.standard_basis(GF2, 3, j)
        assert rl.apply_column_centric(A_GF2, e) == A_GF2.column(j)


def test_transpose():
    assert mat(Q, [[1, 2], [3, 4]]).transpose() == mat(Q, [[1, 3], [2, 4]])
    row = mat(Q, [[1, 2, 3]])
    assert row.transpose() == mat(Q, [[1], [2], [3]])
    assert B_GF2.transpose().transpose() == B_GF2


def test_spaces_and_nullspace_examples():
    assert rl.nullspace(A_GF2) == span_of(GF2, 3, (1, 1, 1))
    assert rl.nullspace(rl.Matrix.identity(GF2, 3)) == rl.Subspace.zero_subspace(GF2, 3)
    zero = rl.Matrix.zero(Q, 2, 3)
    assert rl.nullspace(zero) == rl.Subspace.full_space(Q, 3)
    assert rl.row_space(A_GF2) == span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    assert rl.column_space(A_GF2) == rl.Subspace.full_space(GF2, 2)


def test_rank_and_nullity_examples():
    eye = rl.Matrix.identity(GF5, 4)
    assert rl.rank(eye) == 4 and rl.nullity(eye) == 0
    assert rl.rank(A_GF2) == 2 and rl.nullity(A_GF2) == 1
    assert rl.rank(RANK1_Q) == 1 and rl.nullity(RANK1_Q) == 1


def test_pivot_columns_examples():
    assert rl.pivot_columns(A_GF2) == (1, 2)
    assert rl.pivot_columns(rl.Matrix.identity(Q, 3)) == (1, 2, 3)
    assert rl.pivot_columns(rl.Matrix.zero(GF2, 2, 3)) == ()


def test_dependent_columns_examples():
    assert rl.dependent_columns(A_GF2) == frozenset({3})
    assert rl.dependent_columns(rl.Matrix.identity(Q, 3)) == frozenset()
    assert rl.dependent_columns(mat(Q, [[1, 1], [2, 2]])) == frozenset({2})


def test_rref_examples():
    assert rl.rref(A_GF2) == mat(GF2, [[1, 0, 1], [0, 1, 1]])
    r = mat(Q, [[1, 0, 2], [0, 1, 3]])
    assert rl.rref(r) == r
    zero = rl.Matrix.zero(GF2, 2, 3)
    assert rl.rref(zero) == zero


def test_rref_is_a_function_of_the_row_space():
    a = mat(Q, [[1, 2, 3], [4, 5, 6]])
    b = mat(Q, [[5, 7, 9], [3, 3, 3], [1, 2, 3]])
    assert rl.row_space(a) == rl.row_space(b)
    assert rl.rref(a).rows[:2] == rl.rref(b).rows[:2]


def test_full_rank_factorization_frozen_example():
    f = rl.full_rank_factorization(B_GF2)
    assert f.rank == 2
    assert f.b == mat(GF2, [[1, 0], [1, 0], [0, 1]])
    assert f.g == mat(GF2, [[1, 1, 0], [0, 1, 1]])
    assert f.b @ f.g == B_GF2


def test_full_rank_factorization_rank_one_and_invertible():
    f = rl.full_rank_factorization(RANK1_Q)
    assert f.b == mat(Q, [[1], [2]]) and f.g == mat(Q, [[1, 2]])
    inv = mat(Q, [[2, 1], [1, 1]])
    f = rl.full_rank_factorization(inv)
    assert f.rank == 2
    assert f.b == rl.Matrix.identity(Q, 2) and f.g == inv
    with pytest.raises(DomainError):
        rl.full_rank_factorization(rl.Matrix.zero(Q, 2, 2))


def test_rcef_factorization_frozen_example():
    c, s = rl.rcef_factorization(B_GF2)
    assert c == mat(GF2, [[1, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert s == mat(GF2, [[1, 1, 0], [0, 1, 1], [0, 0, 0]])
    assert c @ s == B_GF2
    assert c == rl.rcef(B_GF2)

    c, s = rl.rcef_factorization(B_GF2, complete=True)
    assert s == mat(GF2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert rl.rank(s) == 3
    assert c @ s == B_GF2

    inv = mat(Q, [[2, 1], [1, 1]])
    c, s = rl.rcef_factorization(inv)
    assert c == rl.Matrix.identity(Q, 2) and s == inv
    with pytest.raises(DomainError):
        rl.rcef_factorization(rl.Matrix.zero(GF2, 1, 2))


def test_rref_factorization_frozen_example():
    t, r = rl.rref_factorization(B_GF2)
    assert t == mat(GF2, [[1, 1, 0], [1, 1, 0], [0, 1, 0]])
    assert r == mat(GF2, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    assert t @ r == B_GF2

    t, r = rl.rref_factorization(RANK1_Q)
    assert t == mat(Q, [[1, 0], [2, 0]]) and r == mat(Q, [[1, 2], [0, 0]])

    full_row = mat(Q, [[1, 0, 2], [0, 1, 3]])
    t, _ = rl.rref_factorization(full_row)
    assert t == rl.Matrix.identity(Q, 2)
    with pytest.raises(DomainError):
        rl.rref_factorization(rl.Matrix.zero(GF2, 2, 2))


@given(matrices())
def test_matrix_answers_match_the_subspace_route(a):
    """Each matrix answer comes from one elimination of a's own rows; it must
    equal the answer built from the row or column space step by step."""
    rs = rl.span_red_basis(a.row_vectors())
    cs = rl.span_red_basis(a.column_vectors())
    assert rl.row_space(a) == rs and rl.column_space(a) == cs
    assert rl.nullspace(a) == rl.complement(rs)
    assert rl.rank(a) == rs.dimension
    lb = rl.lime_basis(rs)
    assert rl.pivot_columns(a) == lb.lime_indices
    nonzero = tuple(r for r in rl.rref(a).row_vectors() if not r.is_zero())
    assert nonzero == lb.vectors
    if rs.ambient > 1:
        shortened = [rl.Vector(a.field, v.entries[:-1]) for v in rs.red_basis]
        assert rl.truncate_right(rs) == rl.span_red_basis(shortened, rs.ambient - 1, a.field)
    if not a.is_zero():
        cs_lime = rl.lime_basis(cs)
        assert rl.full_rank_factorization(a).b.column_vectors() == cs_lime.vectors
        for complete in (False, True):
            s = rl.rcef_factorization(a, complete)[1]
            assert (s.row_vectors()[:rs.dimension]
                    == tuple(a.row(i) for i in cs_lime.lime_indices))


def test_extend_rows_to_invertible():
    out = rl.extend_rows_to_invertible([vec(GF2, 1, 1, 0), vec(GF2, 0, 1, 1)])
    assert out == mat(GF2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert rl.rank(out) == 3

    eye_rows = [rl.Vector.standard_basis(Q, 3, k) for k in (1, 2, 3)]
    assert rl.extend_rows_to_invertible(eye_rows) == rl.Matrix.identity(Q, 3)

    out = rl.extend_rows_to_invertible([vec(GF2, 0, 1)])
    assert out == mat(GF2, [[0, 1], [1, 0]])
    assert rl.rank(out) == 2

    # width 9, past the GF(2) lookup tables: lime indices 1, 2 and 8
    rows = [[1, 0, 0, 0, 0, 0, 0, 0, 1], [0, 1, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 1]]
    units = [[int(i == j) for i in range(1, 10)] for j in (3, 4, 5, 6, 7, 9)]
    out = rl.extend_rows_to_invertible([vec(GF2, *r) for r in rows])
    assert out == mat(GF2, rows + units)
    assert rl.rank(out) == 9
    with pytest.raises(DomainError):
        rl.extend_rows_to_invertible([vec(GF2, *r) for r in rows]
                                     + [vec(GF2, 1, 1, 1, 0, 0, 0, 0, 1, 0)])

    # GF(3): the second row less twice the first originates at 3
    out = rl.extend_rows_to_invertible([vec(GF3, 1, 2, 0, 1), vec(GF3, 2, 1, 1, 0)])
    assert out == mat(GF3, [[1, 2, 0, 1], [2, 1, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert rl.rank(out) == 4
    with pytest.raises(DomainError):
        rl.extend_rows_to_invertible([vec(GF3, 1, 2, 0, 1), vec(GF3, 2, 1, 0, 2)])

    with pytest.raises(DomainError):
        rl.extend_rows_to_invertible([vec(Q, 1, 1), vec(Q, 2, 2)])


@given(matrices())
def test_pivot_columns_form_a_column_space_basis(a):
    cols = [a.column(j) for j in rl.pivot_columns(a)]
    assert rl.is_coordinate_system(cols, rl.column_space(a))


@given(matrices(max_rows=4, max_cols=4))
def test_invertible_matrices_are_square(a):
    full = rl.Subspace.full_space(a.field, a.nrows)
    if rl.is_coordinate_system(list(a.column_vectors()), full):
        assert a.nrows == a.ncols


def test_six_dependence_claims_on_small_corpus():
    # dependence of column j, nullspace red indices, and canonical nullspace
    # members must all tell the same story
    for flat in itertools.product((0, 1), repeat=6):
        a = rl.Matrix.from_values(GF2, [flat[:3], flat[3:]])
        ns = rl.nullspace(a)
        dep = rl.dependent_columns(a)
        assert dep == frozenset(ns.red_indices)
        assert dep == _dependent_columns_by_prefix(a)
        for i, bv in zip(ns.red_indices, ns.red_basis):
            # canonical nullspace member terminating with 1 at i certifies
            # that column i combines the preceding columns
            assert rl.apply_column_centric(a, bv) == rl.Vector.zero(GF2, 2)
            assert bv.entry(i).is_one()
