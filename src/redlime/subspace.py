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

import struct
from functools import reduce
from itertools import compress
from operator import mul, xor
from typing import Iterable, Optional, Sequence

from .errors import DomainError, UsageError
from .fields import FieldSpec, Scalar, _inverse, _scalars, _text


class Vector:
    """An immutable tuple of same-field scalars, stored as raw values;
    ``entries`` is their Scalar view. Positions are 1-based."""

    __slots__ = ("field", "_raw")

    def __init__(self, field: FieldSpec, entries: Iterable[Scalar]):
        self._set(field, _values(field, entries, "vector"))

    def _set(self, field: FieldSpec, raw: tuple):
        if not raw:
            raise UsageError("a vector needs at least one entry")
        self.field = field
        self._raw = raw

    @classmethod
    def from_values(cls, field: FieldSpec, values) -> "Vector":
        """Build a vector by coercing ints/Fractions through the field."""
        v = object.__new__(cls)
        v._set(field, field._coerce_row(values))
        return v

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "Vector":
        return cls.from_values(field, (0,) * n)

    @classmethod
    def standard_basis(cls, field: FieldSpec, n: int, k: int) -> "Vector":
        """E_k in F^n: a 1 in position k, zeros elsewhere."""
        if not 1 <= k <= n:
            raise UsageError(f"position {k} outside 1..{n}")
        return cls.from_values(field, [int(p == k) for p in range(1, n + 1)])

    @property
    def entries(self) -> tuple:
        return _scalars(self.field, self._raw)

    def entry(self, i: int) -> Scalar:
        """The entry in position i (1-based)."""
        if not 1 <= i <= len(self._raw):
            raise UsageError(f"position {i} outside 1..{len(self._raw)}")
        return _scalars(self.field, self._raw[i - 1:i])[0]

    def is_zero(self) -> bool:
        return not any(self._raw)

    def _minus(self, c, src: "Vector") -> "Vector":
        """self - c * src on raw values, c a raw value."""
        _check_vector(src, self.field, len(self._raw))
        row = list(self._raw)
        _axpy(row, c, src._raw, len(row), self.field.modulus)
        return _vector(self.field, tuple(row))

    def __add__(self, other):
        return self._minus(-1, other)

    def __sub__(self, other):
        return self._minus(1, other)

    def __rmul__(self, c):
        if not isinstance(c, Scalar):
            return NotImplemented
        return self._minus(1 - self.field._coerce(c), self)  # c * v is v - (1 - c) * v

    def __neg__(self):
        return self._minus(2, self)  # -v is v - 2 * v

    def __len__(self):
        return len(self._raw)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field == other.field and self._raw == other._raw

    def __hash__(self):
        return hash((self.field, self._raw))

    def __str__(self):
        return "(" + ", ".join(_text(self.field, v) for v in self._raw) + ")"

    def __repr__(self):
        return f"Vector({self.field}, {self.entries!r})"


def terminating_index(v: Vector) -> Optional[int]:
    """Position of the last nonzero entry; None for the zero vector."""
    _check_type(v, Vector)
    p = _last_nonzero(v._raw)
    return None if p is None else p + 1


def originating_index(v: Vector) -> Optional[int]:
    """Position of the first nonzero entry; None for the zero vector."""
    _check_type(v, Vector)
    p = _last_nonzero(v._raw[::-1])
    return None if p is None else len(v._raw) - p


def _values(field: FieldSpec, entries, what: str) -> tuple:
    """The raw values of a caller's Scalars; UsageError unless each is a
    Scalar of field."""
    entries = tuple(entries)
    for e in entries:
        if not isinstance(e, Scalar) or e.field != field:
            raise UsageError(f"{what} entries must be scalars of the {what}'s field")
    return tuple(e.value for e in entries)


def _check_type(x, cls):
    """UsageError unless x is an instance of cls."""
    if not isinstance(x, cls):
        raise UsageError(f"expected a {cls.__name__}, got {type(x).__name__}")


def _check_vector(x, field: FieldSpec, n: int):
    """UsageError unless x is a Vector over field with n entries."""
    _check_type(x, Vector)
    if x.field != field:
        raise UsageError(f"mixed fields: {field} vs {x.field}")
    if len(x._raw) != n:
        raise UsageError(f"vector of length {len(x._raw)} where {n} is needed")


def _check_space(field: FieldSpec, ambient: int):
    """UsageError unless field is a FieldSpec and ambient an int of at least 1."""
    _check_type(field, FieldSpec)
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 1:
        raise UsageError(f"ambient dimension must be an int of at least 1, not {ambient!r}")


def _vector(field: FieldSpec, raw: tuple) -> Vector:
    """A Vector of package-made canonical raw values of field, unchecked:
    ``_unchecked`` for the most built class, with plain attribute stores."""
    v = object.__new__(Vector)
    v.field = field
    v._raw = raw
    return v


def _unchecked(cls, *values):
    """An instance of cls with its __slots__ set to values in order, without
    running __init__: only for objects built here from already-valid parts."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setattr(obj, name, value)
    return obj


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


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")
# struct formats by slot size: slots of 1, 2, 4 or 8 bytes pack in C
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_bytes(bits: int) -> int:
    """Bytes per slot for values below 2**bits: the next struct size (1, 2,
    4 or 8) when one is wide enough."""
    k = -(-bits // 8)
    return 1 << (k - 1).bit_length() if k <= 8 else k


def _pack(row, k: int = 0) -> int:
    """One int holding a raw row (a sequence) of values below 256**k, entry
    j in the k bytes from byte k*j; with k = 0 a GF(2) row (any iterable),
    bit j holding entry j, so the terminating position is
    ``x.bit_length() - 1``."""
    if not k:
        return int(bytes(row)[::-1].translate(_DIGITS), 2)
    if k in _FORMATS:
        return int.from_bytes(struct.pack(f"<{len(row)}{_FORMATS[k]}", *row), "little")
    return int.from_bytes(b"".join([v.to_bytes(k, "little") for v in row]), "little")


def _unpack(x: int, n: int, k: int = 0):
    """The n entries packed in x by ``_pack(row, k)``. For k = 0 the bit set
    at n makes the binary digits exactly n + 1, so reversed and stripped of
    that bit they are the entries in position order."""
    if not k:
        return list(bin(x | 1 << n)[:2:-1].encode().translate(_BITS))
    b = x.to_bytes(k * n, "little")
    if k in _FORMATS:
        return struct.unpack(f"<{n}{_FORMATS[k]}", b)
    return [int.from_bytes(b[j:j + k], "little") for j in range(0, k * n, k)]


# Over odd p, _red runs the slot kernel when both the row count and the width,
# and so the rank bound, are at least _SLOTS_FROM, and the insertion kernel
# otherwise: below it packing and unpacking each row cost more than the row
# operations saved (scripts/kernel_crossover.py; CHANGES.md).
_SLOTS_FROM = 8


def _red(rows, p) -> dict:
    """Raw red-basis dict of the span of a sequence of raw rows (p the
    modulus, None over Q): the one elimination, by one kernel chosen from
    the field and the shape before any row is eliminated. Over GF(2) the
    rows are packed as bits (``_red_bits``); over odd p, on at least
    ``_SLOTS_FROM`` rows of at least ``_SLOTS_FROM`` entries, into slots
    (``_red_slots``, whose docstring proves the slot width); otherwise they
    go through the insertion kernel. Every kernel returns the same dict.
    """
    if p == 2:
        return _red_bits(rows)
    if p is not None and len(rows) >= _SLOTS_FROM and len(rows[0]) >= _SLOTS_FROM:
        return _red_slots(rows, p)
    basis: dict = {}
    for row in rows:
        _insert_red(basis, list(row), p)
    return basis


def _red_bits(rows) -> dict:
    """_red over GF(2): rows packed as bits, so a row operation is one XOR."""
    basis: dict = {}
    n = 0
    for row in rows:
        row = bytes(row)
        n = len(row)
        x = _pack(row)
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


def _red_slots(rows, p: int) -> dict:
    """_red over GF(p), p odd, on a nonempty sequence of raw rows of n entries:
    each row is packed into one int, entry j in slot j of w bits, so a row
    operation is one big-int multiply-add ``x += (p - c) * b``. A stored row
    b is zero mod p at every key but its own, so adding it leaves x's
    residues at the other keys alone: the coefficients c that clear a new
    row at every key are its own entries there, and one sum clears it.

    Slots are never reduced inside that arithmetic, only when a row is
    unpacked, so the width must hold every value a slot can reach. With
    q = p - 1, every slot holds a nonnegative integer congruent to its
    entry, and as long as none reaches 2**w, no slot carries into the next:

    - a reduced row has slots of at most q;
    - a stored row enters reduced and scaled. It then changes only when a
      new key t below its own is inserted, gaining (p - c)·x for the new
      reduced row x, with 1 <= p - c <= q: at most q² per slot. At most
      n - 1 keys come after it, so its slots stay at most q + (n - 1)·q²;
    - a new row starts at most q and gains (p - c)·b once for each of the
      at most n stored rows b. So its slots stay at most
      q + n·q·(q + (n - 1)·q²) = q + n·q² + n(n - 1)·q³, which is below
      n²·q³ because q >= 2 gives n·q³ >= 2n·q² >= n·q² + q.

    n²·q³ < 2**(2·bits(n) + 3·bits(p)), so that many bits per slot suffice.
    A row is unpacked and reduced once as it enters (for its terminating
    index and its scale), and each stored row once at the end.
    """
    n = len(rows[0])
    k = _slot_bytes(3 * p.bit_length() + 2 * n.bit_length())
    w = 8 * k
    mask = (1 << w) - 1
    basis: dict = {}
    for row in rows:
        x = sum([(p - row[i]) * b for i, b in basis.items() if row[i]], _pack(row, k))
        row = [v % p for v in _unpack(x, n, k)]
        t = _last_nonzero(row)
        if t is None:
            continue
        if row[t] != 1:
            inv = pow(row[t], -1, p)
            row = [v * inv % p for v in row]
        x = _pack(row, k)
        for i, b in basis.items():  # clear the new red position from older rows
            if i > t:
                c = (b >> w * t & mask) % p
                if c:
                    basis[i] = b + (p - c) * x
        basis[t] = x
    return {t: [v % p for v in _unpack(x, n, k)] for t, x in basis.items()}


def _product(field: FieldSpec, coefficient_rows, rows, m: int) -> list:
    """Raw rows of the product: for each coefficient row c, the sum of
    c[j]·rows[j] over raw rows of m entries, packed as in ``_red`` (bits
    over GF(2); slots over odd p, one sum reduced once per output row: a
    slot adds at most len(rows) products of two residues, so
    2·bits(p) + bits(len(rows)) bits hold it); ``_axpy`` adds them over Q."""
    p = field.modulus
    if p == 2:
        others = [_pack(r) for r in rows]
        return [_unpack(reduce(xor, compress(others, r), 0), m) for r in coefficient_rows]
    if p is not None:
        k = _slot_bytes(2 * p.bit_length() + len(rows).bit_length())
        others = [_pack(r, k) for r in rows]
        return [[v % p for v in _unpack(sum(map(mul, r, others)), m, k)]
                for r in coefficient_rows]
    out = []
    for r in coefficient_rows:
        acc = [field.zero.value] * m
        for c, src in zip(r, rows):
            if c:
                _axpy(acc, -c, src, m, p)
        out.append(acc)
    return out


def _mirrored(rows, p) -> dict:
    """_red of the position-reversed rows. Reversal swaps terminating and
    originating, so key k holds the lime-basic element for lime index
    ``n - k`` (n the row length), read backwards."""
    return _red([r[::-1] for r in rows], p)


class _Canonical:
    """What Subspace (the red side) and LimeBasis (the lime side) share: a
    field, an ambient dimension, then the indices and their basic elements in
    index order, checked once as they enter and compared as stored."""

    __slots__ = ()
    _side = ""

    def _set(self, field: FieldSpec, ambient: int, indices, vectors):
        _check_space(field, ambient)
        indices, vectors, side = tuple(indices), tuple(vectors), self._side
        if len(indices) != len(vectors):
            raise UsageError("index and vector counts differ")
        prev = 0
        for i in indices:
            if not isinstance(i, int) or not prev < i <= ambient:
                raise UsageError(f"{side} indices must be strictly increasing within 1..{ambient}")
            prev = i
        for i, v in zip(indices, vectors):
            if not isinstance(v, Vector) or v.field != field or len(v._raw) != ambient:
                raise UsageError(f"{side}-basic element has the wrong field or length")
            if v._raw[i - 1] != 1:
                raise UsageError(f"{side}-basic element for index {i} must carry a 1 there")
            outside = range(i, ambient) if side == "red" else range(0, i - 1)
            for p in outside:
                if v._raw[p]:
                    raise UsageError(
                        f"{side}-basic element for index {i} must vanish at position {p + 1}")
            for l in indices:
                if l != i and v._raw[l - 1]:
                    raise UsageError(
                        f"{side}-basic element for index {i} must vanish at {side} index {l}")
        for name, value in zip(self.__slots__, (field, ambient, indices, vectors)):
            setattr(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    @property
    def dimension(self) -> int:
        """Number of indices; a subspace has as many red indices as lime ones,
        and that is the common length of all its coordinate systems."""
        return len(getattr(self, self.__slots__[2]))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        indices = list(self._key()[2])
        return f"{type(self).__name__}({self.field}, n={self.ambient}, {self._side}={indices})"


class Subspace(_Canonical):
    """A subspace held as its red basis; structural equality is set equality."""

    __slots__ = ("field", "ambient", "red_indices", "red_basis")
    _side = "red"

    def __init__(self, field: FieldSpec, ambient: int,
                 red_indices: Sequence[int], red_basis: Sequence[Vector]):
        self._set(field, ambient, red_indices, red_basis)

    @classmethod
    def zero_subspace(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full_space(cls, field: FieldSpec, ambient: int) -> "Subspace":
        basis = tuple(Vector.standard_basis(field, ambient, k) for k in range(1, ambient + 1))
        return cls(field, ambient, tuple(range(1, ambient + 1)), basis)

    def is_zero(self) -> bool:
        return not self.red_indices

    def __contains__(self, x: Vector) -> bool:
        return contains_vector(self, x)

    def __le__(self, other: "Subspace") -> bool:
        return subspace_leq(self, other)


class LimeBasis(_Canonical):
    """Canonical originating-side basis: each vector starts with a 1 at its
    lime index and is zero at every other lime index."""

    __slots__ = ("field", "ambient", "lime_indices", "vectors")
    _side = "lime"

    def __init__(self, field: FieldSpec, ambient: int,
                 lime_indices: Sequence[int], vectors: Sequence[Vector]):
        self._set(field, ambient, lime_indices, vectors)

    @classmethod
    def empty(cls, field: FieldSpec, ambient: int) -> "LimeBasis":
        return cls(field, ambient, (), ())


def _span(field, n, rows) -> Subspace:
    """The span of raw rows in F^n, in canonical red form."""
    basis = _red(rows, field.modulus)
    idx = sorted(basis)
    return _unchecked(Subspace, field, n, tuple(i + 1 for i in idx),
                      tuple(_vector(field, tuple(basis[i])) for i in idx))


def _lime(field, n, rows) -> LimeBasis:
    """The lime basis of the span of raw rows in F^n."""
    mirrored = _mirrored(rows, field.modulus)
    keys = sorted(mirrored, reverse=True)
    return _unchecked(LimeBasis, field, n, tuple(n - k for k in keys),
                      tuple(_vector(field, tuple(mirrored[k][::-1])) for k in keys))


def _common_field_ambient(generators, ambient, field):
    if generators:
        g0 = generators[0]
        _check_type(g0, Vector)
        field = g0.field if field is None else field
        ambient = len(g0._raw) if ambient is None else ambient
    elif field is None or ambient is None:
        raise UsageError("an empty generator list needs an explicit field and ambient")
    _check_space(field, ambient)
    for g in generators:
        _check_vector(g, field, ambient)
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
    return _span(field, ambient, [g._raw for g in generators])


def lime_basis(w: Subspace) -> LimeBasis:
    """Canonical lime basis of the same span: the red basis of the reversed
    span, read backwards.

    The span always has as many lime indices as red ones.
    """
    _check_type(w, Subspace)
    return _lime(w.field, w.ambient, [v._raw for v in w.red_basis])


def append_lime(basis: LimeBasis, y: Vector) -> LimeBasis:
    """The lime basis of the span of basis and y.

    The basis's vectors and y are eliminated afresh, as one list of rows,
    rather than y being inserted into the existing basis. If y lies in the
    current span, basis itself is returned; otherwise the span grows by
    exactly one dimension.
    """
    _check_type(basis, LimeBasis)
    _check_vector(y, basis.field, basis.ambient)
    grown = _lime(basis.field, basis.ambient, [v._raw for v in basis.vectors] + [y._raw])
    return basis if grown.dimension == basis.dimension else grown


def _combine(w: Subspace, coefficients) -> list:
    """Raw entries of the combination of w's red-basic elements with the
    given raw coefficients."""
    return _product(w.field, [coefficients], [v._raw for v in w.red_basis], w.ambient)[0]


def contains_vector(w: Subspace, x: Vector) -> bool:
    """Membership test: x belongs to w exactly when x equals the combination
    of red-basic elements whose coefficients are x's entries at the red
    positions."""
    _check_type(w, Subspace)
    _check_vector(x, w.field, w.ambient)
    return _combine(w, [x._raw[i - 1] for i in w.red_indices]) == list(x._raw)


def coordinates(w: Subspace, x: Vector) -> tuple:
    """Coefficients of a member in the red basis: its entries at the red
    positions, in index order. DomainError if x is not a member."""
    if not contains_vector(w, x):
        raise DomainError("vector is not a member of the subspace")
    return _scalars(w.field, [x._raw[i - 1] for i in w.red_indices])


def element_from_red_entries(w: Subspace, coefficients) -> Vector:
    """The unique member whose red-position entries are the given scalars."""
    _check_type(w, Subspace)
    coeffs = [w.field._coerce(c) for c in coefficients]
    if len(coeffs) != w.dimension:
        raise UsageError(f"expected {w.dimension} coefficients, got {len(coeffs)}")
    return _vector(w.field, tuple(_combine(w, coeffs)))


def _check_comparable(w: Subspace, v: Subspace):
    _check_type(w, Subspace)
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
    _check_type(w, Subspace)
    vectors = list(vectors)
    for v in vectors:
        _check_vector(v, w.field, w.ambient)
    return (len(vectors) == w.dimension
            and _span(w.field, w.ambient, [v._raw for v in vectors]) == w)
