"""Matrices as linear maps: row/column spaces, rank, RREF/RCEF, factorizations.

The convention is fixed throughout: a Matrix has n rows and m columns and
acts on m-tuples. Row space and nullspace live in F^m and are orthogonal
complements of each other; the column space lives in F^n. RREF is the
matrix whose rows are the lime basis of the row space in index order,
padded below with zero rows, so its existence and uniqueness need no row
reduction argument.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .duality import _complement
from .errors import DomainError, UsageError, _check_field, _check_int, _check_type, _items
from .fields import FieldSpec, Scalar, _row_text, _scalars
from .subspace import (Subspace, Vector, _check_space, _check_vector, _common_field_ambient,
                       _eliminate, _product, _span, _unit, _values, _vector)


class Matrix:
    """An immutable n-by-m grid of same-field scalars (n, m >= 1), stored
    as rows of raw values; ``rows`` is their Scalar view."""

    __slots__ = ("field", "nrows", "ncols", "_raw")

    def __init__(self, field: FieldSpec, rows: Iterable[Iterable[Scalar]]):
        self._set(field, [_values(field, r, "matrix") for r in _items(rows, "matrix rows")])

    def _set(self, field: FieldSpec, rows: list):
        if not rows or not rows[0]:
            raise UsageError("a matrix needs at least one row and one column")
        m = len(rows[0])
        for r in rows:
            if len(r) != m:
                raise UsageError("ragged rows")
        self.field = field
        self.nrows = len(rows)
        self.ncols = m
        self._raw = tuple(rows)

    @classmethod
    def from_values(cls, field: FieldSpec, values) -> "Matrix":
        _check_type(field, FieldSpec)
        a = object.__new__(cls)
        rows = _items(values, "matrix rows")
        a._set(field, [field._coerce_row(r, "a matrix row") for r in rows])
        return a

    @classmethod
    def from_rows(cls, vectors: Sequence[Vector]) -> "Matrix":
        vectors, field, _ = _common_field_ambient(vectors, None, None)
        return _matrix(field, [v._raw for v in vectors])

    @classmethod
    def from_columns(cls, vectors: Sequence[Vector]) -> "Matrix":
        return cls.from_rows(vectors).transpose()

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        _check_space(field, n)
        return _matrix(field, [_unit(field, n, j) for j in range(n)])

    @classmethod
    def zero(cls, field: FieldSpec, n: int, m: int) -> "Matrix":
        _check_space(field, n)
        _check_space(field, m)
        return _matrix(field, [(field.zero.value,) * m] * n)

    @property
    def rows(self) -> tuple:
        return tuple(_scalars(self.field, r) for r in self._raw)

    def entry(self, i: int, j: int) -> Scalar:
        """Entry in row i, column j (1-based)."""
        _check_int(i, "row", 1, self.nrows)
        _check_int(j, "column", 1, self.ncols)
        return _scalars(self.field, self._raw[i - 1][j - 1:j])[0]

    def row(self, i: int) -> Vector:
        _check_int(i, "row", 1, self.nrows)
        return _vector(self.field, self._raw[i - 1])

    def column(self, j: int) -> Vector:
        _check_int(j, "column", 1, self.ncols)
        return _vector(self.field, tuple(r[j - 1] for r in self._raw))

    def row_vectors(self) -> tuple:
        return tuple(_vector(self.field, r) for r in self._raw)

    def column_vectors(self) -> tuple:
        return tuple(_vector(self.field, c) for c in zip(*self._raw))

    def transpose(self) -> "Matrix":
        return _matrix(self.field, zip(*self._raw))

    def is_zero(self) -> bool:
        return not any(map(any, self._raw))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _check_type(other, Matrix)
        _check_field(other.field, self.field)
        if self.ncols != other.nrows:
            raise UsageError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return _matrix(self.field, _product(self.field, self._raw, other._raw, other.ncols))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self._raw == other._raw

    def __hash__(self):
        return hash((self.field, self._raw))

    def __str__(self):
        return "\n".join([_row_text(self.field, r) for r in self._raw])

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def _matrix(field: FieldSpec, rows) -> Matrix:
    """A Matrix of package-made raw rows of field, each a tuple, unchecked."""
    rows = tuple(rows)
    a = object.__new__(Matrix)
    a.field = field
    a.nrows = len(rows)
    a.ncols = len(rows[0])
    a._raw = rows
    return a


def apply_row_centric(a: Matrix, x: Vector) -> Vector:
    """Apply a to x one output entry at a time: the i-th entry is the dot
    product of row i with x."""
    _check_type(a, Matrix)
    _check_vector(x, a.field, a.ncols)
    return _vector(a.field, tuple(
        a.field._coerce(sum(c * e for c, e in zip(r, x._raw))) for r in a._raw))


def apply_column_centric(a: Matrix, x: Vector) -> Vector:
    """Apply a to x as a combination of columns weighted by x's entries.

    Agrees entrywise with apply_row_centric, the independent second route
    (plain dot products) that ``verify`` and the tests compare it against.
    Through the packed product this one is the faster, except on tiny odd-p
    matrices.
    """
    _check_type(a, Matrix)
    _check_vector(x, a.field, a.ncols)
    return _vector(a.field, _product(a.field, [x._raw], list(zip(*a._raw)), a.nrows)[0])


def row_space(a: Matrix) -> Subspace:
    """Span of the rows, inside F^m."""
    _check_type(a, Matrix)
    return _span(a.field, a.ncols, a._raw)


def column_space(a: Matrix) -> Subspace:
    """Span of the columns (the range of a), inside F^n."""
    _check_type(a, Matrix)
    return _span(a.field, a.nrows, list(zip(*a._raw)))


def nullspace(a: Matrix) -> Subspace:
    """Vectors sent to zero: the complement of the row space, obtained by
    duality read-off rather than by solving."""
    _check_type(a, Matrix)
    return _complement(a.field, a.ncols, a._raw)


def rank(a: Matrix) -> int:
    """Common dimension of the row space and the column space: the number of
    red indices of the row space, read off an echelon pass
    (``_eliminate`` with keys_only)."""
    _check_type(a, Matrix)
    return len(_eliminate(a._raw, a.ncols, a.field.modulus, keys_only=True))


def nullity(a: Matrix) -> int:
    """Dimension of the nullspace; rank(a) + nullity(a) = column count."""
    return nullspace(a).dimension


def pivot_columns(a: Matrix) -> tuple:
    """Lime indices of the row space; the columns they select form a basis
    of the column space."""
    _check_type(a, Matrix)
    lime = _eliminate(a._raw, a.ncols, a.field.modulus, lime=True, keys_only=True)
    return tuple(sorted(o + 1 for o in lime))


def dependent_columns(a: Matrix) -> frozenset:
    """Indices of columns that are combinations of their predecessors: the
    red indices of the nullspace, which are the non-lime indices of the row
    space, so the columns that are not pivot columns."""
    pivots = pivot_columns(a)
    return frozenset(range(1, a.ncols + 1)).difference(pivots)


def rref(a: Matrix) -> Matrix:
    """Reduced row echelon form: the lime basis of the row space as rows, in
    index order, padded below with zero rows. A pure function of the row
    space, hence unique. The Matrix is built straight from the row tuples
    of ``_eliminate`` on the lime side."""
    _check_type(a, Matrix)
    return _padded(a, _eliminate(a._raw, a.ncols, a.field.modulus, lime=True))


def _padded(a: Matrix, lime: dict) -> Matrix:
    """The row tuples of a lime dict, then zero rows up to a's row count."""
    zero_row = (a.field.zero.value,) * a.ncols
    return _matrix(a.field, (*lime.values(), *(zero_row,) * (a.nrows - len(lime))))


def rcef(a: Matrix) -> Matrix:
    """Reduced column echelon form, via transposition."""
    _check_type(a, Matrix)
    return rref(a.transpose()).transpose()


class FullRankFactors(NamedTuple):
    """a = b @ g with rank(b) = rank(g) = rank(a)."""

    b: Matrix
    g: Matrix
    rank: int


def full_rank_factorization(a: Matrix) -> FullRankFactors:
    """Factor a as b @ g where b's columns are the lime basis of the column
    space and g's rows are the rows of a selected by the lime indices.

    Each column of a combines b's columns with coefficients read at those
    indices, and those coefficients across all columns are exactly g.
    """
    _check_type(a, Matrix)
    lime = _eliminate(list(zip(*a._raw)), a.nrows, a.field.modulus, lime=True)
    if not lime:
        raise DomainError("the zero matrix has no full-rank factorization")
    b = _matrix(a.field, zip(*lime.values()))
    g = _matrix(a.field, [a._raw[i] for i in lime])
    return FullRankFactors(b=b, g=g, rank=len(lime))


def _completion_rows(field: FieldSpec, n: int, lime) -> list:
    """Rows of the n-by-n identity at the positions in range(n) outside the
    0-based lime keys, ascending."""
    return [_unit(field, n, j) for j in range(n) if j not in lime]


def rcef_factorization(a: Matrix, complete: bool = False) -> tuple:
    """Split a nonzero matrix as RCEF(a) @ s.

    s carries the rows of a picked by the lime indices of the column space,
    then zero rows; with ``complete`` the zero rows become standard basis
    vectors at the non-lime indices of the row space, which makes s
    invertible without changing the product (those rows meet only zero
    columns of the RCEF).
    """
    _check_type(a, Matrix)
    t, r = rref_factorization(a.transpose(), complete)
    return r.transpose(), t.transpose()


def rref_factorization(a: Matrix, complete: bool = False) -> tuple:
    """Split a nonzero matrix as t @ RREF(a).

    t carries the columns of a picked by the lime indices of the row space,
    then zero columns; ``complete`` fills those with standard basis vectors
    at the non-lime indices of the column space, making t invertible.
    """
    _check_type(a, Matrix)
    lime = _eliminate(a._raw, a.ncols, a.field.modulus, lime=True)
    if not lime:
        raise DomainError("the zero matrix has no echelon factorization")
    columns = list(zip(*a._raw))
    t_cols = [columns[j] for j in lime]
    if complete:
        keys = _eliminate(columns, a.nrows, a.field.modulus, lime=True, keys_only=True)
        t_cols += _completion_rows(a.field, a.nrows, keys)
    else:
        t_cols += [(a.field.zero.value,) * a.nrows] * (a.nrows - len(lime))
    return _matrix(a.field, zip(*t_cols)), _padded(a, lime)


def extend_rows_to_invertible(rows: Sequence[Vector]) -> Matrix:
    """Extend an independent list of m-tuples to an invertible m-by-m matrix
    by appending the standard basis vectors at the non-lime indices of the
    span: afterwards every position is an originating position, so the rows
    span the whole space. One echelon pass gives both: the rows are
    independent exactly when they have as many lime indices as rows."""
    rows, field, n = _common_field_ambient(rows, None, None)
    entries = [v._raw for v in rows]
    lime = _eliminate(entries, n, field.modulus, lime=True, keys_only=True)
    if len(lime) != len(rows):
        raise DomainError("input rows are linearly dependent")
    return _matrix(field, entries + _completion_rows(field, n, lime))
