"""Checks at the public boundary, and the objects built behind it.

Arguments are validated once, where they enter a public function. Inside,
rows are raw values and results are assembled without re-running the public
constructors, so every result must still be exactly what those constructors
accept and rebuild unchanged.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import redlime as rl
from redlime.errors import UsageError

from conftest import GF3, GF5, matrices, scalars, subspaces, vectors


# --- one argument check per public entry point ------------------------------

V = rl.Vector.from_values(GF5, (1, 2, 3))
W = rl.span_red_basis([V])
A = rl.Matrix.from_values(GF5, [[1, 0, 2], [0, 1, 1]])

BAD_VECTORS = {
    "wrong type": (1, 2, 3),
    "wrong field": rl.Vector.from_values(GF3, (1, 2, 0)),
    "wrong length": rl.Vector.from_values(GF5, (1, 2)),
}

def _not_a_vector(x):
    """A bad vector as the wrong type where any vector is accepted: inside a
    one-column matrix, with the same wrong field or row count."""
    return rl.Matrix.from_columns([x]) if isinstance(x, rl.Vector) else x


CALLS = {
    "dot": lambda x: rl.dot(V, x),
    "dot (first argument)": lambda x: rl.dot(x, V),
    "span_red_basis": lambda x: rl.span_red_basis([x, V]),
    "extend_rows_to_invertible": lambda x: rl.extend_rows_to_invertible([x, V]),
    "Matrix.from_rows": lambda x: rl.Matrix.from_rows([x, V]),
    "contains_vector": lambda x: rl.contains_vector(W, x),
    "coordinates": lambda x: rl.coordinates(W, x),
    "append_lime": lambda x: rl.append_lime(rl.lime_basis(W), x),
    "is_coordinate_system": lambda x: rl.is_coordinate_system([x], W),
    "apply_row_centric": lambda x: rl.apply_row_centric(A, x),
    "apply_column_centric": lambda x: rl.apply_column_centric(A, x),
    "Vector.__add__": lambda x: V + x,
    "Vector.__sub__": lambda x: V - x,
    # a bad vector as a one-column matrix: same wrong field or wrong row count
    "Matrix.__matmul__": lambda x: A @ _not_a_vector(x),
    "terminating_index": lambda x: rl.terminating_index(_not_a_vector(x)),
    "originating_index": lambda x: rl.originating_index(_not_a_vector(x)),
    "sub_terminal_index": lambda x: rl.sub_terminal_index(_not_a_vector(x)),
    "append_lime (basis)": lambda x: rl.append_lime(x, V),
    "contains_vector (subspace)": lambda x: rl.contains_vector(x, V),
    "coordinates (subspace)": lambda x: rl.coordinates(x, V),
    "element_from_red_entries": lambda x: rl.element_from_red_entries(x, [1]),
    "subspace_leq": lambda x: rl.subspace_leq(x, W),
    "subspace_leq (second argument)": lambda x: rl.subspace_leq(W, x),
    "is_coordinate_system (subspace)": lambda x: rl.is_coordinate_system([V], x),
    "apply_row_centric (matrix)": lambda x: rl.apply_row_centric(x, V),
    "apply_column_centric (matrix)": lambda x: rl.apply_column_centric(x, V),
    "permute_presenting_positions": lambda x: rl.permute_presenting_positions(x, [1]),
    "synthesize": lambda x: rl.synthesize(x, GF5),
    "subspace_from_pattern": lambda x: rl.subspace_from_pattern([1, 0, 1], x),
    # functions of one Matrix, Subspace or Signature: no vector is one
    **{name: getattr(rl, name) for name in (
        "row_space", "column_space", "nullspace", "rank", "nullity", "pivot_columns",
        "dependent_columns", "rref", "rcef", "full_rank_factorization",
        "rcef_factorization", "rref_factorization", "lime_basis", "complement",
        "lime_of_complement_from_red", "signature", "truncate_right", "is_feasible",
        "textbook_rref")},
}


@pytest.mark.parametrize("bad", BAD_VECTORS)
@pytest.mark.parametrize("call", CALLS)
def test_bad_arguments_are_usage_errors(call, bad):
    with pytest.raises(UsageError):
        CALLS[call](BAD_VECTORS[bad])


# --- one check of the field and the ambient dimension -----------------------

BAD_SPACES = {
    "span_red_basis, ambient 0": lambda: rl.span_red_basis([], 0, rl.gf(2)),
    "span_red_basis, ambient -3": lambda: rl.span_red_basis([], -3, rl.gf(2)),
    "brute_complement, ambient -2": lambda: rl.brute_complement([], -2, rl.gf(2)),
    "all_vectors, ambient -1": lambda: list(rl.all_vectors(rl.gf(2), -1)),
    "Subspace, float ambient": lambda: rl.Subspace(GF5, 3.0, (), ()),
    "Subspace, text ambient": lambda: rl.Subspace(GF5, "3", (), ()),
    "Subspace, text field": lambda: rl.Subspace("x", 3, (), ()),
    "LimeBasis, bool ambient": lambda: rl.LimeBasis(GF5, True, (), ()),
    "gaussian_binomial, tuple n": lambda: rl.gaussian_binomial((1, 2, 3), 1, 2),
    "gaussian_binomial, field size 1": lambda: rl.gaussian_binomial(3, 1, 1),
    "gaussian_binomial, bool n": lambda: rl.gaussian_binomial(True, 1, 2),
    "subspace_count, tuple n": lambda: rl.subspace_count((1, 2, 3), 2),
    "enumerate_subspaces, text n": lambda: list(rl.enumerate_subspaces("x", 2)),
}


@pytest.mark.parametrize("call", BAD_SPACES)
def test_bad_field_or_ambient_is_a_usage_error(call):
    with pytest.raises(UsageError):
        BAD_SPACES[call]()


# --- internal builds pass the public constructors ---------------------------

def assert_entries(field, entries):
    assert type(entries) is tuple
    for e in entries:
        assert isinstance(e, rl.Scalar) and e.field == field
        if field.is_prime_field:
            assert type(e.value) is int and e.value in range(field.modulus)
        else:
            assert type(e.value) is Fraction


def assert_raw(field, raw):
    """The stored values themselves are canonical, not only their views:
    ``_scalars`` would map an int 0 in a Q row to a canonical zero, and ``==``
    would not tell an int 1 from Fraction(1)."""
    assert type(raw) is tuple
    for v in raw:
        if field.is_prime_field:
            assert type(v) is int and v in range(field.modulus)
        else:
            assert type(v) is Fraction


def assert_rebuilds(obj):
    """obj stores canonical raw values in tuples and its views hold canonical
    scalars in tuples, and its public constructor accepts its parts and
    rebuilds an equal object."""
    if isinstance(obj, rl.Vector):
        assert_raw(obj.field, obj._raw)
        assert_entries(obj.field, obj.entries)
        assert rl.Vector(obj.field, obj.entries) == obj
    elif isinstance(obj, rl.Subspace):
        assert type(obj.red_indices) is tuple and type(obj.red_basis) is tuple
        for v in obj.red_basis:
            assert_rebuilds(v)
        assert rl.Subspace(obj.field, obj.ambient, obj.red_indices, obj.red_basis) == obj
    elif isinstance(obj, rl.LimeBasis):
        assert type(obj.lime_indices) is tuple and type(obj.vectors) is tuple
        for v in obj.vectors:
            assert_rebuilds(v)
        assert rl.LimeBasis(obj.field, obj.ambient, obj.lime_indices, obj.vectors) == obj
    elif isinstance(obj, rl.Matrix):
        assert type(obj.rows) is tuple and type(obj._raw) is tuple
        for raw, r in zip(obj._raw, obj.rows, strict=True):
            assert_raw(obj.field, raw)
            assert_entries(obj.field, r)
        rebuilt = rl.Matrix(obj.field, obj.rows)
        assert rebuilt == obj
        assert (rebuilt.nrows, rebuilt.ncols) == (obj.nrows, obj.ncols)
    else:
        raise AssertionError(f"unexpected result type {type(obj).__name__}")


@given(subspaces(), st.data())
def test_subspace_results_rebuild(w, data):
    y = data.draw(vectors(w.field, w.ambient))
    coeffs = data.draw(st.lists(scalars(w.field), min_size=w.dimension,
                                max_size=w.dimension))
    c = data.draw(scalars(w.field))
    lb = rl.lime_basis(w)
    for obj in (w, lb, rl.append_lime(lb, y), rl.complement(w),
                rl.lime_of_complement_from_red(w), rl.complement(w),
                rl.element_from_red_entries(w, coeffs),
                y + y, y - y, c * y, -y, rl.Vector.zero(w.field, w.ambient),
                rl.Vector.standard_basis(w.field, w.ambient, w.ambient)):
        assert_rebuilds(obj)
    assert_entries(w.field, (rl.dot(y, y),))


@given(matrices(), st.data())
def test_matrix_results_rebuild(a, data):
    k = data.draw(st.integers(1, 4))
    b = rl.Matrix(a.field, data.draw(st.lists(
        st.lists(scalars(a.field), min_size=k, max_size=k),
        min_size=a.ncols, max_size=a.ncols)))
    x = data.draw(vectors(a.field, a.ncols))
    results = [a.transpose(), a @ b, rl.rref(a), rl.rcef(a), rl.nullspace(a),
               rl.Matrix.identity(a.field, a.nrows), rl.Matrix.zero(a.field, a.nrows, a.ncols),
               rl.row_space(a), rl.column_space(a), a.row(1), a.column(1),
               *a.row_vectors(), *a.column_vectors(),
               rl.apply_row_centric(a, x), rl.apply_column_centric(a, x)]
    if not a.is_zero():
        f = rl.full_rank_factorization(a)
        results += [f.b, f.g]
        for complete in (False, True):
            results += [*rl.rref_factorization(a, complete),
                        *rl.rcef_factorization(a, complete)]
    for obj in results:
        assert_rebuilds(obj)
