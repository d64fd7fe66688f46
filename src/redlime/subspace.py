"""Vectors and subspaces of F^n in canonical red/lime form.

A nonzero vector *terminates* at its last nonzero position and *originates*
at its first. A position is *red* (right-standard) for a subspace W when
some member of W terminates there, and *lime* (left-standard) when some
member originates there. For each red index i, W holds exactly one member
that terminates with a 1 at i and is zero at every other red index; these
red-basic elements, in index order, form the red basis. That basis is the
canonical form a Subspace stores: two Subspace values describe the same set
of vectors exactly when they compare equal. LimeBasis is the originating
mirror, derivable on demand.

Positions are 1-based at every public interface.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import DomainError, UsageError
from .fields import FieldSpec, Scalar, _inverse, _scalars


class Vector:
    """An immutable tuple of same-field scalars; positions are 1-based."""

    __slots__ = ("field", "entries")

    def __init__(self, field: FieldSpec, entries: Iterable[Scalar]):
        entries = tuple(entries)
        if not entries:
            raise UsageError("a vector needs at least one entry")
        for e in entries:
            if not isinstance(e, Scalar) or e.field != field:
                raise UsageError("vector entries must be scalars of the vector's field")
        self.field = field
        self.entries = entries

    @classmethod
    def from_values(cls, field: FieldSpec, values) -> "Vector":
        """Build a vector by coercing ints/Fractions through the field."""
        return cls(field, tuple(field.scalar(v) for v in values))

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "Vector":
        return cls(field, (field.zero,) * n)

    @classmethod
    def standard_basis(cls, field: FieldSpec, n: int, k: int) -> "Vector":
        """E_k in F^n: a 1 in position k, zeros elsewhere."""
        if not 1 <= k <= n:
            raise UsageError(f"position {k} outside 1..{n}")
        z, o = field.zero, field.one
        return cls(field, tuple(o if p == k else z for p in range(1, n + 1)))

    def entry(self, i: int) -> Scalar:
        """The entry in position i (1-based)."""
        if not 1 <= i <= len(self.entries):
            raise UsageError(f"position {i} outside 1..{len(self.entries)}")
        return self.entries[i - 1]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other):
        _check_vector(other, self.field, len(self.entries))
        return _unchecked(Vector, self.field,
                          tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        _check_vector(other, self.field, len(self.entries))
        return _unchecked(Vector, self.field,
                          tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __rmul__(self, c):
        if not isinstance(c, Scalar):
            return NotImplemented
        if c.field != self.field:
            raise UsageError(f"mixed fields: {c.field} vs {self.field}")
        return _unchecked(Vector, self.field, tuple(c * e for e in self.entries))

    def __neg__(self):
        return _unchecked(Vector, self.field, tuple(-e for e in self.entries))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.entries) + ")"

    def __repr__(self):
        return f"Vector({self.field}, {self.entries!r})"


def terminating_index(v: Vector) -> Optional[int]:
    """Position of the last nonzero entry; None for the zero vector."""
    p = _last_nonzero(v.entries)
    return None if p is None else p + 1


def originating_index(v: Vector) -> Optional[int]:
    """Position of the first nonzero entry; None for the zero vector."""
    p = _last_nonzero(v.entries[::-1])
    return None if p is None else len(v.entries) - p


def _check_type(x, cls):
    """UsageError unless x is an instance of cls."""
    if not isinstance(x, cls):
        raise UsageError(f"expected a {cls.__name__}, got {type(x).__name__}")


def _check_vector(x, field: FieldSpec, n: int):
    """UsageError unless x is a Vector over field with n entries."""
    _check_type(x, Vector)
    if x.field != field:
        raise UsageError(f"mixed fields: {field} vs {x.field}")
    if len(x.entries) != n:
        raise UsageError(f"vector of length {len(x.entries)} where {n} is needed")


def _unchecked(cls, *values):
    """An instance of cls with its __slots__ set to values in order, without
    running __init__: only for objects built here from already-valid parts."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setattr(obj, name, value)
    return obj


def _vector(field: FieldSpec, values) -> Vector:
    return _unchecked(Vector, field, _scalars(field, values))


# ---------------------------------------------------------------------------
# internal mutable-row kernels (0-based); public surfaces convert to 1-based.
# Rows hold raw values: Fractions over Q, residues in range(p) over GF(p).

def _axpy(row: list, c, src, stop: int, p) -> None:
    """row[:stop] -= c * src[:stop] on raw values, reduced mod p unless p is None."""
    if p is None:
        row[:stop] = [a - c * b if b else a for a, b in zip(row[:stop], src)]
    else:
        row[:stop] = [(a - c * b) % p if b else a for a, b in zip(row[:stop], src)]


def _last_nonzero(row, below: Optional[int] = None) -> Optional[int]:
    start = (len(row) if below is None else below) - 1
    for p in range(start, -1, -1):
        if row[p]:
            return p
    return None


def _insert_red(basis: dict, row: list, p) -> Optional[int]:
    """Absorb one raw row into a red-basis dict keyed by 0-based terminal
    position; p is the modulus, None over Q.

    Returns the new key when the row enlarged the span, else None. The dict
    stays canonical throughout: each stored row terminates with a 1 at its
    key and is zero at every other key.
    """
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
    for i, piv in basis.items():  # clear the new red position from older rows
        if i > t and piv[t]:
            _axpy(piv, piv[t], row, t + 1, p)
    basis[t] = row
    return t


def _pack(row) -> tuple:
    """(bits, length) of a row of GF(2) Scalars: bit j is entry j, so the
    terminating position is ``bits.bit_length() - 1``."""
    x = n = 0
    for e in row:
        if e.value:
            x |= 1 << n
        n += 1
    return x, n


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _unpack(x: int, n: int) -> list:
    """The n raw entries (0 or 1) packed in x. The bit set at n makes the
    binary digits exactly n + 1, so reversed and stripped of that bit they
    are the entries in position order."""
    return list(bin(x | 1 << n)[:2:-1].encode().translate(_BITS))


def _red(rows, p) -> dict:
    """Raw red-basis dict of the span of rows of Scalars (p the modulus, None
    over Q): the one elimination.

    Over GF(2) the rows are packed into ints, so a row operation is one XOR;
    every other field goes through the insertion kernel.
    """
    basis: dict = {}
    if p != 2:
        for row in rows:
            _insert_red(basis, [e.value for e in row], p)
        return basis
    for row in rows:
        x, n = _pack(row)
        # clear x at every key; each stored row is zero at the other keys
        for i, b in basis.items():
            if x >> i & 1:
                x ^= b
        if x:
            t = x.bit_length() - 1
            for i, b in basis.items():  # clear the new red position from older rows
                if i > t and b >> t & 1:
                    basis[i] = b ^ x
            basis[t] = x
    return {t: _unpack(x, n) for t, x in basis.items()}


def _mirrored(rows, p) -> dict:
    """_red of the position-reversed rows. Reversal swaps terminating and
    originating, so key k holds the lime-basic element for lime index
    ``n - k`` (n the row length), read backwards."""
    return _red(map(reversed, rows), p)


def _validate_canonical(field, ambient, indices, vectors, side: str):
    if len(indices) != len(vectors):
        raise UsageError("index and vector counts differ")
    prev = 0
    for i in indices:
        if not isinstance(i, int) or not prev < i <= ambient:
            raise UsageError(f"{side} indices must be strictly increasing within 1..{ambient}")
        prev = i
    index_set = set(indices)
    for i, v in zip(indices, vectors):
        if not isinstance(v, Vector) or v.field != field or len(v.entries) != ambient:
            raise UsageError(f"{side}-basic element has the wrong field or length")
        if not v.entries[i - 1].is_one():
            raise UsageError(f"{side}-basic element for index {i} must carry a 1 there")
        outside = range(i, ambient) if side == "red" else range(0, i - 1)
        for p in outside:
            if v.entries[p]:
                raise UsageError(
                    f"{side}-basic element for index {i} must vanish at position {p + 1}")
        for l in index_set:
            if l != i and v.entries[l - 1]:
                raise UsageError(
                    f"{side}-basic element for index {i} must vanish at {side} index {l}")


class Subspace:
    """A subspace held as its red basis; structural equality is set equality."""

    __slots__ = ("field", "ambient", "red_indices", "red_basis")

    def __init__(self, field: FieldSpec, ambient: int,
                 red_indices: Sequence[int], red_basis: Sequence[Vector]):
        if ambient < 1:
            raise UsageError("ambient dimension must be at least 1")
        red_indices = tuple(red_indices)
        red_basis = tuple(red_basis)
        _validate_canonical(field, ambient, red_indices, red_basis, "red")
        self.field = field
        self.ambient = ambient
        self.red_indices = red_indices
        self.red_basis = red_basis

    @classmethod
    def zero_subspace(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full_space(cls, field: FieldSpec, ambient: int) -> "Subspace":
        basis = tuple(Vector.standard_basis(field, ambient, k) for k in range(1, ambient + 1))
        return cls(field, ambient, tuple(range(1, ambient + 1)), basis)

    @property
    def dimension(self) -> int:
        """Number of red indices; equals the number of lime indices and the
        common length of all coordinate systems."""
        return len(self.red_indices)

    def is_zero(self) -> bool:
        return not self.red_indices

    def __contains__(self, x: Vector) -> bool:
        return contains_vector(self, x)

    def __le__(self, other: "Subspace") -> bool:
        return subspace_leq(self, other)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.red_indices == other.red_indices
                and self.red_basis == other.red_basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.red_indices, self.red_basis))

    def __repr__(self):
        return f"Subspace({self.field}, n={self.ambient}, red={list(self.red_indices)})"


class LimeBasis:
    """Canonical originating-side basis: each vector starts with a 1 at its
    lime index and is zero at every other lime index."""

    __slots__ = ("field", "ambient", "lime_indices", "vectors")

    def __init__(self, field: FieldSpec, ambient: int,
                 lime_indices: Sequence[int], vectors: Sequence[Vector]):
        if ambient < 1:
            raise UsageError("ambient dimension must be at least 1")
        lime_indices = tuple(lime_indices)
        vectors = tuple(vectors)
        _validate_canonical(field, ambient, lime_indices, vectors, "lime")
        self.field = field
        self.ambient = ambient
        self.lime_indices = lime_indices
        self.vectors = vectors

    @classmethod
    def empty(cls, field: FieldSpec, ambient: int) -> "LimeBasis":
        return cls(field, ambient, (), ())

    @property
    def dimension(self) -> int:
        return len(self.lime_indices)

    def __eq__(self, other):
        if not isinstance(other, LimeBasis):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.lime_indices == other.lime_indices
                and self.vectors == other.vectors)

    def __hash__(self):
        return hash((self.field, self.ambient, self.lime_indices, self.vectors))

    def __repr__(self):
        return f"LimeBasis({self.field}, n={self.ambient}, lime={list(self.lime_indices)})"


def _span(field, n, rows) -> Subspace:
    """The span of rows of Scalars in F^n, in canonical red form."""
    basis = _red(rows, field.modulus)
    idx = sorted(basis)
    return _unchecked(Subspace, field, n, tuple(i + 1 for i in idx),
                      tuple(_vector(field, basis[i]) for i in idx))


def _lime(field, n, rows) -> LimeBasis:
    """The lime basis of the span of rows of Scalars in F^n."""
    mirrored = _mirrored(rows, field.modulus)
    keys = sorted(mirrored, reverse=True)
    return _unchecked(LimeBasis, field, n, tuple(n - k for k in keys),
                      tuple(_vector(field, mirrored[k][::-1]) for k in keys))


def _common_field_ambient(generators, ambient, field):
    if generators:
        g0 = generators[0]
        _check_type(g0, Vector)
        field = g0.field if field is None else field
        ambient = len(g0.entries) if ambient is None else ambient
        for g in generators:
            _check_vector(g, field, ambient)
    elif field is None or ambient is None:
        raise UsageError("an empty generator list needs an explicit field and ambient")
    return field, ambient


def span_red_basis(generators: Sequence[Vector], ambient: Optional[int] = None,
                   field: Optional[FieldSpec] = None) -> Subspace:
    """Canonical red basis of span(generators), by incremental insertion.

    Each generator is reduced against the basis built so far until its
    terminal position is new, scaled to terminate with 1, cleaned at the
    remaining red positions, and inserted; the new red position is then
    cleared from the other basis vectors. The span is preserved at every
    step, and zero generators are skipped.
    """
    generators = list(generators)
    field, ambient = _common_field_ambient(generators, ambient, field)
    return _span(field, ambient, [g.entries for g in generators])


def lime_basis(w: Subspace) -> LimeBasis:
    """Canonical lime basis of the same span: the red basis of the reversed
    span, read backwards.

    The span always has as many lime indices as red ones.
    """
    return _lime(w.field, w.ambient, [v.entries for v in w.red_basis])


def append_lime(basis: LimeBasis, y: Vector) -> LimeBasis:
    """Absorb one vector into a canonical lime basis.

    If y lies in the current span the basis is returned unchanged; otherwise
    y is pre-reduced until its leading position is not yet lime, scaled to
    originate with 1, cleaned at the later lime positions, and inserted, and
    the new lime position is cleared from the earlier basis vectors. The
    span grows by exactly the one new vector.
    """
    _check_vector(y, basis.field, basis.ambient)
    grown = _lime(basis.field, basis.ambient, [v.entries for v in basis.vectors] + [y.entries])
    return basis if grown.dimension == basis.dimension else grown


def _combine(w: Subspace, coefficients) -> list:
    """Raw entries of the combination of w's red-basic elements with the
    given raw coefficients."""
    acc = [0] * w.ambient
    for i, c, bv in zip(w.red_indices, coefficients, w.red_basis):
        if c:  # bv vanishes past its red index i
            _axpy(acc, -c, [e.value for e in bv.entries[:i]], i, w.field.modulus)
    return acc


def contains_vector(w: Subspace, x: Vector) -> bool:
    """Membership test: x belongs to w exactly when x equals the combination
    of red-basic elements whose coefficients are x's entries at the red
    positions."""
    _check_vector(x, w.field, w.ambient)
    values = [e.value for e in x.entries]
    return _combine(w, [values[i - 1] for i in w.red_indices]) == values


def coordinates(w: Subspace, x: Vector) -> tuple:
    """Coefficients of a member in the red basis: its entries at the red
    positions, in index order. DomainError if x is not a member."""
    if not contains_vector(w, x):
        raise DomainError("vector is not a member of the subspace")
    return tuple(x.entries[i - 1] for i in w.red_indices)


def element_from_red_entries(w: Subspace, coefficients) -> Vector:
    """The unique member whose red-position entries are the given scalars."""
    coeffs = [w.field.scalar(c).value for c in coefficients]
    if len(coeffs) != w.dimension:
        raise UsageError(f"expected {w.dimension} coefficients, got {len(coeffs)}")
    return _vector(w.field, _combine(w, coeffs))


def _check_comparable(w: Subspace, v: Subspace):
    _check_type(v, Subspace)
    if w.field != v.field:
        raise UsageError(f"mixed fields: {w.field} vs {v.field}")
    if w.ambient != v.ambient:
        raise UsageError("mismatched ambient dimensions")


def subspace_leq(w: Subspace, v: Subspace) -> bool:
    """True iff w is contained in v."""
    _check_comparable(w, v)
    return all(contains_vector(v, b) for b in w.red_basis)


def is_coordinate_system(vectors: Sequence[Vector], w: Subspace) -> bool:
    """True iff the list spans w, starts with a nonzero vector, and no entry
    lies in the span of its predecessors; equivalently, every member of w
    has exactly one expression as a combination of the list."""
    vectors = list(vectors)
    for v in vectors:
        _check_vector(v, w.field, w.ambient)
    return (len(vectors) == w.dimension
            and _span(w.field, w.ambient, [v.entries for v in vectors]) == w)
