"""Checks at the public boundary, and the objects built behind it.

Arguments are validated once, where they enter a public function. Inside,
rows are raw values and results are assembled without re-running the public
constructors, so every result must still be exactly what those constructors
accept and rebuild unchanged.

Each refusal is a row of one table per kind of refusal, the canonical form
of every result is checked by rebuilding it through the checking
constructors, and equality depends on the field and the ambient.
``test_api_fuzz.py`` adds drawn pairs of another field or length, and that
no call ends in a traceback.
"""

import math
import os
import re
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import redlime as rl
from redlime.errors import UsageError
from redlime.matrixfile import parse_field_tokens
from redlime.subspace import _vector

from conftest import ALL_FIELDS, GF3, GF5, matrices, scalars, subspaces, vec, vectors


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
    "span_red_basis, no field": lambda: rl.span_red_basis([], 3),
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
    "Subspace.full_space, no field or ambient": lambda: rl.Subspace.full_space(None, None),
    "truncate_right, ambient 1": lambda: rl.truncate_right(rl.Subspace.full_space(rl.RATIONALS, 1)),
    "enumerate_span, over Q": lambda: rl.enumerate_span([vec(rl.RATIONALS, 1, 0)]),
    # sizes past sys.maxsize, which no sequence reaches, refused before any build
    "Vector.zero, huge n": lambda: rl.Vector.zero(GF5, 10**30),
    "Vector.standard_basis, huge n": lambda: rl.Vector.standard_basis(GF5, 10**30, 1),
    "Matrix.zero, huge n": lambda: rl.Matrix.zero(GF5, 10**30, 1),
    "Matrix.identity, huge n": lambda: rl.Matrix.identity(GF5, 10**30),
    "Subspace.full_space, huge ambient": lambda: rl.Subspace.full_space(GF5, 10**30),
    "gaussian_binomial, huge n": lambda: rl.gaussian_binomial(10**30, 1, 2),
    "subspace_count, huge n": lambda: rl.subspace_count(10**30, 2),
    "signature_from_indices, huge n": lambda: rl.signature_from_indices((), (), 10**30),
}


@pytest.mark.parametrize("call", BAD_SPACES)
def test_bad_field_or_ambient_is_a_usage_error(call):
    with pytest.raises(UsageError):
        BAD_SPACES[call]()


# --- wrong-type fields, dimensions, text, matrices and budgets ---------------

BAD_TYPES = {
    "Vector.from_values, no field": lambda: rl.Vector.from_values(None, [1]),
    "Vector.zero, text field": lambda: rl.Vector.zero("x", 2),
    "Vector.standard_basis, text n": lambda: rl.Vector.standard_basis(rl.gf(2), "a", 1),
    "Vector.standard_basis, text k": lambda: rl.Vector.standard_basis(rl.gf(2), 2, "a"),
    "Matrix.from_values, no field": lambda: rl.Matrix.from_values(None, [[1]]),
    "Matrix.identity, text n": lambda: rl.Matrix.identity(rl.gf(2), "x"),
    "Matrix.zero, text m": lambda: rl.Matrix.zero(rl.gf(2), 2, "x"),
    "parse_scalar, no field": lambda: rl.parse_scalar("1", None),
    "parse_scalar, int text": lambda: rl.parse_scalar(5, rl.gf(2)),
    "parse_vector_text, no field": lambda: rl.parse_vector_text("1 0", None),
    "parse_vector_text, int text": lambda: rl.parse_vector_text(5, rl.gf(2)),
    "parse_matrix_text, int text": lambda: rl.parse_matrix_text(5),
    "render_matrix, int": lambda: rl.render_matrix(5),
    "field_header, int": lambda: rl.field_header(5),
    "Permutation, int": lambda: rl.Permutation(5),
    "Permutation, text image": lambda: rl.Permutation((1, "a")),
    "Permutation, bool images": lambda: rl.Permutation((True,)),
    "Permutation, no images": lambda: rl.Permutation(()),
    "Permutation, repeated image": lambda: rl.Permutation((1, 1, 2)),
    "Permutation.apply, tuple": lambda: rl.Permutation((3, 1, 2)).apply((1, 1, 0)),
    "Permutation.image_of, text position": lambda: rl.Permutation((1,)).image_of("a"),
    "Signature, int": lambda: rl.Signature(5),
    "Signature, list of marks": lambda: rl.Signature([rl.Mark.BOTH]),
    "signature_from_indices, ints": lambda: rl.signature_from_indices(1, 2, 3),
    "load_matrix, None": lambda: rl.load_matrix(None),
    "Signature.from_string, int": lambda: rl.Signature.from_string(5),
    "Mark, None": lambda: rl.Mark(None),
    "Mark, text": lambda: rl.Mark("x"),
    "Mark, int without a repr": lambda: rl.Mark(10**5000),
    "Mark, enum functional API": lambda: rl.Mark("x", names="y"),
    "Scalar, no field": lambda: rl.Scalar(None, 1) + rl.Scalar(None, 1),
    "Scalar, text value": lambda: rl.Vector(GF5, [rl.Scalar(GF5, "x")]),
    "Vector.entry, text position": lambda: V.entry("a"),
    "Matrix.entry, text row": lambda: A.entry("a", 1),
    "Matrix.entry, float row": lambda: A.entry(1.0, 1),
    "Matrix.entry, text column": lambda: A.entry(1, "a"),
    "Matrix.row, text": lambda: A.row("a"),
    "Matrix.column, text": lambda: A.column("a"),
    "permute_presenting_positions, text position":
        lambda: rl.permute_presenting_positions(W, [1, "a"]),
    "parse_field_tokens, int": lambda: parse_field_tokens(5),
    "parse_field_tokens, int tokens": lambda: parse_field_tokens(["gf", 5]),
    "enumerate_span, text budget": lambda: rl.enumerate_span([V], budget="x"),
    "all_vectors, text budget": lambda: list(rl.all_vectors(rl.gf(2), 2, budget="x")),
    "all_vectors, NaN budget": lambda: list(rl.all_vectors(rl.gf(2), 2, budget=float("nan"))),
    "enumerate_subspaces, text budget": lambda: list(rl.enumerate_subspaces(2, 2, budget="x")),
    "enumerate_subspaces, bool budget": lambda: list(rl.enumerate_subspaces(2, 2, budget=True)),
    "brute_indices, no budget": lambda: rl.brute_indices([V], budget=None),
    "brute_complement, text budget": lambda: rl.brute_complement([V], budget="x"),
    # an int where a collection goes, and unhashable labels and positions
    "Vector, int entries": lambda: rl.Vector(GF5, 5),
    "Vector.from_values, int values": lambda: rl.Vector.from_values(GF5, 5),
    "Matrix, int rows": lambda: rl.Matrix(GF5, 5),
    "Matrix, int row": lambda: rl.Matrix(GF5, [5]),
    "Matrix.from_values, int rows": lambda: rl.Matrix.from_values(GF5, 5),
    "Matrix.from_values, int row": lambda: rl.Matrix.from_values(GF5, [5]),
    "Matrix.from_rows, int": lambda: rl.Matrix.from_rows(5),
    "Matrix.from_rows, no rows": lambda: rl.Matrix.from_rows([]),
    "Matrix.from_columns, int": lambda: rl.Matrix.from_columns(5),
    "Subspace, int indices": lambda: rl.Subspace(GF5, 3, 5, ()),
    "Subspace, int basis": lambda: rl.Subspace(GF5, 3, (), 5),
    "LimeBasis, int vectors": lambda: rl.LimeBasis(GF5, 3, (1,), 5),
    "span_red_basis, int": lambda: rl.span_red_basis(5),
    "is_coordinate_system, int": lambda: rl.is_coordinate_system(5, W),
    "element_from_red_entries, int": lambda: rl.element_from_red_entries(W, 5),
    "extend_rows_to_invertible, int": lambda: rl.extend_rows_to_invertible(5),
    "extend_rows_to_invertible, no rows": lambda: rl.extend_rows_to_invertible([]),
    "permute_presenting_positions, int": lambda: rl.permute_presenting_positions(W, 5),
    "permute_presenting_positions, list position":
        lambda: rl.permute_presenting_positions(W, [[1]]),
    "subspace_from_pattern, int": lambda: rl.subspace_from_pattern(5, GF5),
    "subspace_from_pattern, list label": lambda: rl.subspace_from_pattern([[1]], GF5),
    "enumerate_span, int": lambda: rl.enumerate_span(5),
    "brute_indices, int": lambda: rl.brute_indices(5),
    "brute_complement, int": lambda: rl.brute_complement(5),
    # a bool where a position, a count or a modulus goes
    "Vector.entry, bool position": lambda: V.entry(True),
    "Matrix.row, bool": lambda: A.row(True),
    "Permutation.image_of, bool position": lambda: rl.Permutation((1,)).image_of(True),
    "Vector.standard_basis, bool k": lambda: rl.Vector.standard_basis(GF5, 3, True),
    "signature_from_indices, bool n": lambda: rl.signature_from_indices((1,), (), True),
    "signature_from_indices, index past n": lambda: rl.signature_from_indices((4,), (), 3),
    "signature_from_indices, list index": lambda: rl.signature_from_indices((), [[1]], 3),
    "FieldSpec, bool modulus": lambda: rl.FieldSpec(True),
    "gf, float modulus": lambda: rl.gf(2.5),
}


@pytest.mark.parametrize("call", BAD_TYPES)
def test_wrong_type_arguments_are_usage_errors(call):
    with pytest.raises(UsageError):
        BAD_TYPES[call]()


# Each builds a Subspace or LimeBasis of GF(5)^3 from parts that break its
# canonical form, or its index and vector lists.
BAD_CANONICAL = {
    "red element without a 1 at its index":
        lambda: rl.Subspace(GF5, 3, (2,), (vec(GF5, 1, 2, 0),)),
    "red element nonzero past its index":
        lambda: rl.Subspace(GF5, 3, (2,), (vec(GF5, 0, 1, 1),)),
    "red element nonzero at another index":
        lambda: rl.Subspace(GF5, 3, (1, 3), (vec(GF5, 1, 0, 0), vec(GF5, 1, 0, 1))),
    "lime element without a 1 at its index":
        lambda: rl.LimeBasis(GF5, 3, (2,), (vec(GF5, 0, 2, 1),)),
    "lime element nonzero before its index":
        lambda: rl.LimeBasis(GF5, 3, (2,), (vec(GF5, 1, 1, 0),)),
    "lime element nonzero at another index":
        lambda: rl.LimeBasis(GF5, 3, (1, 2), (vec(GF5, 1, 1, 0), vec(GF5, 0, 1, 0))),
    "indices not increasing":
        lambda: rl.Subspace(GF5, 3, (2, 1), (vec(GF5, 0, 1, 0), vec(GF5, 1, 0, 0))),
    "index out of range": lambda: rl.LimeBasis(GF5, 3, (4,), (vec(GF5, 0, 0, 1),)),
    "index zero": lambda: rl.Subspace(GF5, 3, (0,), (vec(GF5, 1, 0, 0),)),
    "count mismatch": lambda: rl.Subspace(GF5, 3, (1, 2), (vec(GF5, 1, 0, 0),)),
    "vector over another field": lambda: rl.Subspace(GF5, 3, (1,), (vec(GF3, 1, 0, 0),)),
    "vector of another length": lambda: rl.LimeBasis(GF5, 3, (1,), (vec(GF5, 1, 0),)),
    "float index": lambda: rl.Subspace(GF5, 3, (1.0,), (vec(GF5, 1, 0, 0),)),
    "bool index": lambda: rl.LimeBasis(GF5, 3, (True,), (vec(GF5, 1, 0, 0),)),
}


@pytest.mark.parametrize("case", BAD_CANONICAL)
def test_constructors_refuse_non_canonical_parts(case):
    with pytest.raises(UsageError):
        BAD_CANONICAL[case]()


MESSAGES = {  # each names the argument, and its range where it has one
    "position must be an int, not bool": lambda: V.entry(True),
    "row must be an int, not bool": lambda: A.row(True),
    f"ambient dimension of 100 bits outside 1..{sys.maxsize}": lambda: rl.Vector.zero(GF5, 10**30),
    "ambient dimension of 16610 bits": lambda: rl.Vector.zero(GF5, 10**5000),
    "position 4 outside 1..3": lambda: V.entry(4),
    "coefficients must be an iterable, not int": lambda: rl.element_from_red_entries(W, 5),
    "mixed fields: Q where GF(5) is needed":
        lambda: rl.element_from_red_entries(W, [rl.RATIONALS.one]),
    "expected 1 coefficients, got 2": lambda: rl.element_from_red_entries(W, [1, 2]),
    "vector values must be an iterable, not int": lambda: rl.Vector.from_values(GF5, 5),
    "a matrix row must be an iterable, not int": lambda: rl.Matrix.from_values(GF5, [5]),
    "mixed fields: GF(3) where GF(5) is needed": lambda: V + BAD_VECTORS["wrong field"],
    "cannot read a\0b: embedded null byte": lambda: rl.load_matrix("a\0b"),
    "cannot read no such directory/absent.txt: ":
        lambda: rl.load_matrix("no such directory/absent.txt"),
    "mixed fields: GF(3) where GF(2) is needed": lambda: rl.gf(2).scalar(1) + GF3.scalar(1),
    "cannot coerce non-integer 1/2 into GF(5)": lambda: GF5.scalar(Fraction(1, 2)),
}


@pytest.mark.parametrize("message", MESSAGES)
def test_usage_errors_name_the_argument(message):
    with pytest.raises(UsageError, match=re.escape(message)):
        MESSAGES[message]()


def test_permutations_from_lists_and_tuples_agree():
    by_list, by_tuple = rl.Permutation([3, 1, 2]), rl.Permutation((3, 1, 2))
    assert by_list == by_tuple and hash(by_list) == hash(by_tuple)
    assert len({by_list, by_tuple}) == 1 and repr(by_list) == "Permutation(images=(3, 1, 2))"


def test_load_matrix_refuses_a_file_descriptor():
    r, w = os.pipe()
    try:
        os.write(w, b"field gf 2\n1 0\n")
        with pytest.raises(UsageError):
            rl.load_matrix(r)
        os.fstat(r)  # still open: the refused call neither read nor closed it
        assert os.read(r, 100) == b"field gf 2\n1 0\n"
    finally:
        os.close(r)
        os.close(w)


def test_budgets_of_int_float_and_inf_are_accepted():
    assert len(rl.enumerate_span([V], budget=25.0)) == 5
    assert len(list(rl.all_vectors(rl.gf(2), 2, budget=math.inf))) == 4
    assert len(list(rl.enumerate_subspaces(2, 2, budget=5))) == 5


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


def assert_canonical_rows(obj, indices, view):
    """A Subspace or LimeBasis stores its basic elements as one tuple of
    canonical raw rows, and its Vector view is those rows, built afresh."""
    assert type(indices) is tuple and type(obj._raw) is tuple and type(view) is tuple
    assert len(obj._raw) == len(indices)
    for raw in obj._raw:
        assert len(raw) == obj.ambient
        assert_raw(obj.field, raw)
    assert view == tuple(_vector(obj.field, raw) for raw in obj._raw)
    for v in view:
        assert_rebuilds(v)


def assert_rebuilds(obj):
    """obj stores canonical raw values in tuples and its views hold canonical
    scalars in tuples, and its public constructor accepts its parts and
    rebuilds an equal object."""
    if isinstance(obj, rl.Vector):
        assert_raw(obj.field, obj._raw)
        assert_entries(obj.field, obj.entries)
        assert rl.Vector(obj.field, obj.entries) == obj
    elif isinstance(obj, rl.Subspace):
        assert_canonical_rows(obj, obj.red_indices, obj.red_basis)
        rebuilt = rl.Subspace(obj.field, obj.ambient, obj.red_indices, obj.red_basis)
        assert rebuilt == obj and hash(rebuilt) == hash(obj)
    elif isinstance(obj, rl.LimeBasis):
        assert_canonical_rows(obj, obj.lime_indices, obj.vectors)
        rebuilt = rl.LimeBasis(obj.field, obj.ambient, obj.lime_indices, obj.vectors)
        assert rebuilt == obj and hash(rebuilt) == hash(obj)
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
                rl.Vector.standard_basis(w.field, w.ambient, w.ambient),
                rl.Subspace.full_space(w.field, w.ambient)):
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


def test_canonical_values_build_by_keyword():
    w = rl.span_red_basis([V])
    lb = rl.lime_basis(w)
    by_keyword = rl.Subspace(field=w.field, ambient=w.ambient,
                             red_indices=w.red_indices, red_basis=w.red_basis)
    assert by_keyword == w and by_keyword.red_basis == (rl.Vector.from_values(GF5, (2, 4, 1)),)
    lime_by_keyword = rl.LimeBasis(field=lb.field, ambient=lb.ambient,
                                   lime_indices=lb.lime_indices, vectors=lb.vectors)
    assert lime_by_keyword == lb and lime_by_keyword.vectors == (V,)


# --- which space a value lives in: the field and the ambient take part in == --

# Raw values coincide across fields (Fraction(1) == 1, Fraction(0) == 0), so
# each builder makes, over every field, values whose raw parts are equal:
# only the field tells them apart.
SAME_RAW = {
    "Scalar": lambda f: rl.Scalar(f, 1),
    "Vector": lambda f: rl.Vector.from_values(f, (0, 1)),
    "Matrix": lambda f: rl.Matrix.from_values(f, [[0, 1], [1, 0]]),
    "Subspace": lambda f: rl.span_red_basis([rl.Vector.from_values(f, (0, 1))]),
    "LimeBasis": lambda f: rl.lime_basis(rl.span_red_basis([rl.Vector.from_values(f, (0, 1))])),
}


@pytest.mark.parametrize("kind", SAME_RAW)
def test_equal_raw_values_over_different_fields_differ(kind):
    made = {f: SAME_RAW[kind](f) for f in ALL_FIELDS}
    for f, x in made.items():
        for g, y in made.items():
            assert (x == y) is (f == g) and (x != y) is (f != g), (f, g)
            if f == g:
                assert hash(x) == hash(SAME_RAW[kind](g))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_empty_values_of_different_ambients_differ(field):
    """The zero subspace and the empty lime basis have no indices and no
    rows, so only the ambient tells F^3's from F^4's."""
    for make in (rl.Subspace.zero_subspace, rl.LimeBasis.empty):
        x, y = make(field, 3), make(field, 4)
        assert x != y and not x == y
        assert x == make(field, 3) and hash(x) == hash(make(field, 3))


def test_containment_across_fields_or_ambients_is_a_usage_error():
    for f, g in permutations(ALL_FIELDS, 2):
        w, v = SAME_RAW["Subspace"](f), SAME_RAW["Subspace"](g)
        with pytest.raises(UsageError):
            rl.subspace_leq(w, v)
        with pytest.raises(UsageError):
            w <= v
    with pytest.raises(UsageError):
        rl.subspace_leq(rl.Subspace.zero_subspace(GF5, 3), rl.Subspace.full_space(GF5, 4))


# Pairs of values drawn across GF(2), GF(3) and Q and across ambients, with
# 0/1 entries so that raw parts often coincide, each built by one of the
# routes that make it: the public constructors, and the package-made
# results (rref, nullspace, complement, lime_basis) assembled unchecked.
EQ_FIELDS = (rl.gf(2), GF3, rl.RATIONALS)


@st.composite
def placed_values(draw, kind):
    """(value, field, shape) of a drawn kind, the shape being the ambient
    (rows and columns for a Matrix, none for a Scalar)."""
    field = draw(st.sampled_from(EQ_FIELDS))
    n = draw(st.integers(1, 3))

    def bits(k):
        return draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))

    def matrix():
        return rl.Matrix.from_values(field, [bits(n) for _ in range(draw(st.integers(1, 2)))])

    route = draw(st.integers(0, 3))
    if kind == "Scalar":
        return field.scalar(bits(1)[0]), field, ()
    if kind == "Vector":
        return rl.Vector.from_values(field, bits(n)), field, n
    if kind == "Matrix":
        a = matrix() if route < 2 else rl.rref(matrix())
        return a, field, (a.nrows, a.ncols)
    if kind == "Subspace":
        w = (rl.Subspace.zero_subspace(field, n), rl.nullspace(matrix()),
             rl.complement(rl.row_space(matrix())), rl.row_space(matrix()))[route]
        return w, field, n
    lb = rl.LimeBasis.empty(field, n) if route == 0 else rl.lime_basis(rl.row_space(matrix()))
    return lb, field, n


def _rebuilt(x):
    """x rebuilt through its public constructor from its public parts."""
    if isinstance(x, rl.Scalar):
        return rl.Scalar(x.field, x.value)
    if isinstance(x, rl.Vector):
        return rl.Vector(x.field, x.entries)
    if isinstance(x, rl.Matrix):
        return rl.Matrix(x.field, x.rows)
    if isinstance(x, rl.Subspace):
        return rl.Subspace(x.field, x.ambient, x.red_indices, x.red_basis)
    return rl.LimeBasis(x.field, x.ambient, x.lime_indices, x.vectors)


EQ_KINDS = ("Scalar", "Vector", "Matrix", "Subspace", "LimeBasis")


@given(st.sampled_from(EQ_KINDS).flatmap(
    lambda kind: st.tuples(placed_values(kind), placed_values(kind))))
def test_equal_values_hash_alike_and_share_field_and_ambient(pair):
    (x, fx, sx), (y, fy, sy) = pair
    for v in (x, y):
        assert v == _rebuilt(v) and hash(v) == hash(_rebuilt(v))
    if x == y:
        assert hash(x) == hash(y)
    if fx != fy or sx != sy:
        assert x != y and not x == y, (x, y)
    assert (x == y) is (y == x)


def test_equality_across_fields_and_ambients_at_the_smallest_sizes():
    """1x1 matrices, F^1's zero and full subspaces and empty lime bases:
    equal exactly when field and shape agree."""
    def made(f, n):
        return (rl.Matrix.from_values(f, [[1] * n] * n), rl.Matrix.zero(f, n, n),
                rl.Subspace.zero_subspace(f, n), rl.Subspace.full_space(f, n),
                rl.nullspace(rl.Matrix.zero(f, 1, n)), rl.LimeBasis.empty(f, n),
                rl.rref(rl.Matrix.identity(f, n)))
    spaces = [(f, n) for f in EQ_FIELDS for n in (1, 2)]
    for (f, n), (g, k) in product(spaces, repeat=2):
        for x, y in zip(made(f, n), made(g, k)):
            same = (f, n) == (g, k)
            assert (x == y) is same, (f, n, g, k, x)
            if same:
                assert hash(x) == hash(y)
