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

from .duality import complement, dot
from .errors import DomainError, UsageError
from .fields import FieldSpec, Scalar, _scalars
from .subspace import (LimeBasis, Subspace, Vector, _axpy, _check_vector,
                       _lime_indices, _unchecked, _vector, lime_basis,
                       span_red_basis)


class Matrix:
    """An immutable n-by-m grid of same-field scalars (n, m >= 1)."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows: Iterable[Iterable[Scalar]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise UsageError("a matrix needs at least one row and one column")
        m = len(rows[0])
        for r in rows:
            if len(r) != m:
                raise UsageError("ragged rows")
            for e in r:
                if not isinstance(e, Scalar) or e.field != field:
                    raise UsageError("matrix entries must be scalars of the matrix field")
        self.field = field
        self.nrows = len(rows)
        self.ncols = m
        self.rows = rows

    @classmethod
    def from_values(cls, field: FieldSpec, values) -> "Matrix":
        return cls(field, [[field.scalar(v) for v in row] for row in values])

    @classmethod
    def from_rows(cls, vectors: Sequence[Vector]) -> "Matrix":
        vectors = list(vectors)
        if not vectors:
            raise UsageError("need at least one row vector")
        return cls(vectors[0].field, [v.entries for v in vectors])

    @classmethod
    def from_columns(cls, vectors: Sequence[Vector]) -> "Matrix":
        return cls.from_rows(vectors).transpose()

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: FieldSpec, n: int, m: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * m for _ in range(n)])

    def entry(self, i: int, j: int) -> Scalar:
        """Entry in row i, column j (1-based)."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise UsageError(f"entry ({i},{j}) outside {self.nrows}x{self.ncols}")
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> Vector:
        if not 1 <= i <= self.nrows:
            raise UsageError(f"row {i} outside 1..{self.nrows}")
        return _unchecked(Vector, self.field, self.rows[i - 1])

    def column(self, j: int) -> Vector:
        if not 1 <= j <= self.ncols:
            raise UsageError(f"column {j} outside 1..{self.ncols}")
        return _unchecked(Vector, self.field, tuple(r[j - 1] for r in self.rows))

    def row_vectors(self) -> tuple:
        return tuple(_unchecked(Vector, self.field, r) for r in self.rows)

    def column_vectors(self) -> tuple:
        return tuple(_unchecked(Vector, self.field, c) for c in zip(*self.rows))

    def transpose(self) -> "Matrix":
        return _unchecked(Matrix, self.field, self.ncols, self.nrows, tuple(zip(*self.rows)))

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            raise UsageError(f"expected a Matrix, got {type(other).__name__}")
        if other.field != self.field:
            raise UsageError(f"mixed fields: {self.field} vs {other.field}")
        if self.ncols != other.nrows:
            raise UsageError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        p, m = self.field.modulus, other.ncols
        others = [[e.value for e in r] for r in other.rows]
        out = []
        for r in self.rows:
            acc = [0] * m
            for c, src in zip(r, others):
                if c:
                    _axpy(acc, -c.value, src, m, p)
            out.append(_scalars(self.field, acc))
        return _unchecked(Matrix, self.field, self.nrows, m, tuple(out))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __str__(self):
        return "\n".join(" ".join(str(e) for e in r) for r in self.rows)

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def apply_row_centric(a: Matrix, x: Vector) -> Vector:
    """Apply a to x one output entry at a time: the i-th entry is the dot
    product of row i with x."""
    _check_vector(x, a.field, a.ncols)
    return _unchecked(Vector, a.field, tuple(dot(r, x) for r in a.row_vectors()))


def apply_column_centric(a: Matrix, x: Vector) -> Vector:
    """Apply a to x as a combination of columns weighted by x's entries.

    Agrees entrywise with apply_row_centric; both stay available because
    each orientation is the cheaper one for some downstream use.
    """
    _check_vector(x, a.field, a.ncols)
    acc = [0] * a.nrows
    for c, col in zip(x.entries, zip(*a.rows)):
        if c:
            _axpy(acc, -c.value, [e.value for e in col], a.nrows, a.field.modulus)
    return _vector(a.field, acc)


def row_space(a: Matrix) -> Subspace:
    """Span of the rows, inside F^m."""
    return span_red_basis(a.row_vectors(), a.ncols, a.field)


def column_space(a: Matrix) -> Subspace:
    """Span of the columns (the range of a), inside F^n."""
    return span_red_basis(a.column_vectors(), a.nrows, a.field)


def nullspace(a: Matrix) -> Subspace:
    """Vectors sent to zero: the complement of the row space, obtained by
    duality read-off rather than by solving."""
    return complement(row_space(a))


def rank(a: Matrix) -> int:
    """Common dimension of the row space and the column space."""
    return row_space(a).dimension


def nullity(a: Matrix) -> int:
    """Dimension of the nullspace; rank(a) + nullity(a) = column count."""
    return nullspace(a).dimension


def pivot_columns(a: Matrix) -> tuple:
    """Lime indices of the row space; the columns they select form a basis
    of the column space."""
    return _lime_indices(row_space(a))


def dependent_columns(a: Matrix) -> frozenset:
    """Indices of columns that are combinations of their predecessors: the
    red indices of the nullspace."""
    return frozenset(nullspace(a).red_indices)


def rref(a: Matrix) -> Matrix:
    """Reduced row echelon form: the lime basis of the row space as rows, in
    index order, padded below with zero rows. A pure function of the row
    space, hence unique."""
    return _padded(a, lime_basis(row_space(a)))


def _padded(a: Matrix, lb: LimeBasis) -> Matrix:
    """The rows of lb, then zero rows up to a's row count."""
    zero_row = (a.field.zero,) * a.ncols
    rows = tuple(v.entries for v in lb.vectors) + (zero_row,) * (a.nrows - lb.dimension)
    return _unchecked(Matrix, a.field, a.nrows, a.ncols, rows)


def rcef(a: Matrix) -> Matrix:
    """Reduced column echelon form, via transposition."""
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
    cs = column_space(a)
    r = cs.dimension
    if r == 0:
        raise DomainError("the zero matrix has no full-rank factorization")
    lb = lime_basis(cs)
    b = Matrix.from_columns(lb.vectors)
    g = Matrix(a.field, [a.rows[i - 1] for i in lb.lime_indices])
    return FullRankFactors(b=b, g=g, rank=r)


def _completion_rows(a_field, span: Subspace) -> list:
    """Standard basis vectors at the non-lime indices of a span, ascending."""
    lime = set(_lime_indices(span))
    n = span.ambient
    return [Vector.standard_basis(a_field, n, j)
            for j in range(1, n + 1) if j not in lime]


def rcef_factorization(a: Matrix, complete: bool = False) -> tuple:
    """Split a nonzero matrix as RCEF(a) @ s.

    s carries the rows of a picked by the lime indices of the column space,
    then zero rows; with ``complete`` the zero rows become standard basis
    vectors at the non-lime indices of the row space, which makes s
    invertible without changing the product (those rows meet only zero
    columns of the RCEF).
    """
    f = full_rank_factorization(a)
    m = a.ncols
    zero_col = (a.field.zero,) * (m - f.rank)
    rcef_of_a = Matrix(a.field, [row + zero_col for row in f.b.rows])
    s_rows = list(f.g.row_vectors())
    if complete:
        s_rows.extend(_completion_rows(a.field, row_space(a)))
    else:
        s_rows.extend(Vector.zero(a.field, m) for _ in range(m - f.rank))
    return rcef_of_a, Matrix.from_rows(s_rows)


def rref_factorization(a: Matrix, complete: bool = False) -> tuple:
    """Split a nonzero matrix as t @ RREF(a).

    t carries the columns of a picked by the lime indices of the row space,
    then zero columns; ``complete`` fills those with standard basis vectors
    at the non-lime indices of the column space, making t invertible.
    """
    rs = row_space(a)
    if rs.dimension == 0:
        raise DomainError("the zero matrix has no echelon factorization")
    lb = lime_basis(rs)
    t_cols = [a.column(j) for j in lb.lime_indices]
    if complete:
        t_cols.extend(_completion_rows(a.field, column_space(a)))
    else:
        t_cols.extend(Vector.zero(a.field, a.nrows)
                      for _ in range(a.nrows - rs.dimension))
    return Matrix.from_columns(t_cols), _padded(a, lb)


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
    return Matrix.from_rows(rows + _completion_rows(span.field, span))
