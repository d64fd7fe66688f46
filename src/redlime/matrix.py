"""Matrices as linear maps: row/column spaces, rank, RREF/RCEF, factorizations.

The convention is fixed throughout: a Matrix has n rows and m columns and
acts on m-tuples. Row space and nullspace live in F^m and are orthogonal
complements of each other; the column space lives in F^n. RREF is the
matrix whose rows are the lime basis of the row space in index order,
padded below with zero rows, so its existence and uniqueness need no row
reduction argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .duality import _complement
from .errors import DomainError, UsageError
from .fields import FieldSpec, Scalar, _scalars, _text
from .subspace import (LimeBasis, Subspace, Vector, _check_type, _check_vector,
                       _common_field_ambient, _lime, _mirrored, _product, _red,
                       _span, _unchecked, _values, _vector, span_red_basis)


class Matrix:
    """An immutable n-by-m grid of same-field scalars (n, m >= 1), stored
    as rows of raw values; ``rows`` is their Scalar view."""

    __slots__ = ("field", "nrows", "ncols", "_raw")

    def __init__(self, field: FieldSpec, rows: Iterable[Iterable[Scalar]]):
        self._set(field, [_values(field, r, "matrix") for r in rows])

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
        a = object.__new__(cls)
        a._set(field, [field._coerce_row(row) for row in values])
        return a

    @classmethod
    def from_rows(cls, vectors: Sequence[Vector]) -> "Matrix":
        vectors = list(vectors)
        if not vectors:
            raise UsageError("need at least one row vector")
        field, _ = _common_field_ambient(vectors, None, None)
        return _matrix(field, [v._raw for v in vectors])

    @classmethod
    def from_columns(cls, vectors: Sequence[Vector]) -> "Matrix":
        return cls.from_rows(vectors).transpose()

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls.from_values(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: FieldSpec, n: int, m: int) -> "Matrix":
        return cls.from_values(field, [[0] * m for _ in range(n)])

    @property
    def rows(self) -> tuple:
        return tuple(_scalars(self.field, r) for r in self._raw)

    def entry(self, i: int, j: int) -> Scalar:
        """Entry in row i, column j (1-based)."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise UsageError(f"entry ({i},{j}) outside {self.nrows}x{self.ncols}")
        return _scalars(self.field, self._raw[i - 1][j - 1:j])[0]

    def row(self, i: int) -> Vector:
        if not 1 <= i <= self.nrows:
            raise UsageError(f"row {i} outside 1..{self.nrows}")
        return _vector(self.field, self._raw[i - 1])

    def column(self, j: int) -> Vector:
        if not 1 <= j <= self.ncols:
            raise UsageError(f"column {j} outside 1..{self.ncols}")
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
        if other.field != self.field:
            raise UsageError(f"mixed fields: {self.field} vs {other.field}")
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
        return "\n".join(" ".join(_text(self.field, v) for v in r) for r in self._raw)

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def _matrix(field: FieldSpec, rows) -> Matrix:
    """A Matrix of package-made raw rows of field, unchecked."""
    rows = tuple(map(tuple, rows))
    return _unchecked(Matrix, field, len(rows), len(rows[0]), rows)


def apply_row_centric(a: Matrix, x: Vector) -> Vector:
    """Apply a to x one output entry at a time: the i-th entry is the dot
    product of row i with x."""
    _check_type(a, Matrix)
    _check_vector(x, a.field, a.ncols)
    return _vector(a.field, tuple(
        a.field._coerce(sum(c * e for c, e in zip(r, x._raw))) for r in a._raw))


def apply_column_centric(a: Matrix, x: Vector) -> Vector:
    """Apply a to x as a combination of columns weighted by x's entries.

    Agrees entrywise with apply_row_centric; both stay available because
    each orientation is the cheaper one for some downstream use.
    """
    _check_type(a, Matrix)
    _check_vector(x, a.field, a.ncols)
    return _vector(a.field, tuple(_product(a.field, [x._raw], list(zip(*a._raw)), a.nrows)[0]))


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
    """Common dimension of the row space and the column space."""
    _check_type(a, Matrix)
    return len(_red(a._raw, a.field.modulus))


def nullity(a: Matrix) -> int:
    """Dimension of the nullspace; rank(a) + nullity(a) = column count."""
    return nullspace(a).dimension


def pivot_columns(a: Matrix) -> tuple:
    """Lime indices of the row space; the columns they select form a basis
    of the column space."""
    _check_type(a, Matrix)
    return tuple(sorted(a.ncols - k for k in _mirrored(a._raw, a.field.modulus)))


def dependent_columns(a: Matrix) -> frozenset:
    """Indices of columns that are combinations of their predecessors: the
    red indices of the nullspace."""
    return frozenset(nullspace(a).red_indices)


def rref(a: Matrix) -> Matrix:
    """Reduced row echelon form: the lime basis of the row space as rows, in
    index order, padded below with zero rows. A pure function of the row
    space, hence unique."""
    _check_type(a, Matrix)
    return _padded(a, _lime(a.field, a.ncols, a._raw))


def _padded(a: Matrix, lb: LimeBasis) -> Matrix:
    """The rows of lb, then zero rows up to a's row count."""
    zero_row = (a.field.zero.value,) * a.ncols
    return _matrix(a.field, [v._raw for v in lb.vectors]
                   + [zero_row] * (a.nrows - lb.dimension))


def rcef(a: Matrix) -> Matrix:
    """Reduced column echelon form, via transposition."""
    _check_type(a, Matrix)
    return rref(a.transpose()).transpose()


@dataclass(frozen=True)
class FullRankFactors:
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
    lb = _lime(a.field, a.nrows, zip(*a._raw))
    if lb.dimension == 0:
        raise DomainError("the zero matrix has no full-rank factorization")
    b = _matrix(a.field, zip(*(v._raw for v in lb.vectors)))
    g = _matrix(a.field, [a._raw[i - 1] for i in lb.lime_indices])
    return FullRankFactors(b=b, g=g, rank=lb.dimension)


def _completion_rows(field: FieldSpec, n: int, rows) -> list:
    """Rows of the n-by-n identity at the non-lime indices of the span of
    rows, ascending."""
    lime = {n - 1 - k for k in _mirrored(rows, field.modulus)}
    z, o = field.zero.value, field.one.value
    return [tuple(o if i == j else z for i in range(n)) for j in range(n) if j not in lime]


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
    lb = _lime(a.field, a.ncols, a._raw)
    if lb.dimension == 0:
        raise DomainError("the zero matrix has no echelon factorization")
    columns = list(zip(*a._raw))
    t_cols = [columns[j - 1] for j in lb.lime_indices]
    if complete:
        t_cols += _completion_rows(a.field, a.nrows, columns)
    else:
        t_cols += [(a.field.zero.value,) * a.nrows] * (a.nrows - lb.dimension)
    return _matrix(a.field, zip(*t_cols)), _padded(a, lb)


def extend_rows_to_invertible(rows: Sequence[Vector]) -> Matrix:
    """Extend an independent list of m-tuples to an invertible m-by-m matrix
    by appending the standard basis vectors at the non-lime indices of the
    span: afterwards every position is an originating position, so the rows
    span the whole space."""
    rows = list(rows)
    if not rows:
        raise UsageError("need at least one row")
    span = span_red_basis(rows)
    if span.dimension != len(rows):
        raise DomainError("input rows are linearly dependent")
    entries = [v._raw for v in rows]
    return _matrix(span.field, entries + _completion_rows(span.field, span.ambient, entries))
