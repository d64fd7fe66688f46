"""Vectors and subspaces of F^n in canonical red/lime form.

A nonzero vector *terminates* at its last nonzero position and *originates*
at its first. A position is *red* (right-standard) for a subspace W when
some member of W terminates there, and *lime* (left-standard) when some
member originates there. For each red index i, W holds exactly one member
that terminates with a 1 at i and is zero at every other red index; these
red-basic elements, in index order, form the red basis. That basis is the
canonical form a Subspace stores, as one tuple of raw rows (Vector and Matrix
store theirs the same way; Scalars and Vectors exist only in the public
views): two Subspace values describe the same set of vectors exactly when
they compare equal. LimeBasis is the originating mirror, derivable on demand.

Positions are 1-based at every public interface.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, product
from math import gcd, lcm
from operator import mul, xor
from typing import Iterable, Optional, Sequence

from .errors import DomainError, UsageError, _check_field, _check_int, _check_type, _items
from .fields import FieldSpec, Scalar, _scalars, _text


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
        _check_type(field, FieldSpec)
        v = object.__new__(cls)
        v._set(field, field._coerce_row(values, "vector values"))
        return v

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "Vector":
        _check_space(field, n)
        return _vector(field, (field.zero.value,) * n)

    @classmethod
    def standard_basis(cls, field: FieldSpec, n: int, k: int) -> "Vector":
        """E_k in F^n: a 1 in position k, zeros elsewhere."""
        _check_space(field, n)
        _check_int(k, "position", 1, n)
        return _vector(field, _unit(field, n, k - 1))

    @property
    def entries(self) -> tuple:
        return _scalars(self.field, self._raw)

    def entry(self, i: int) -> Scalar:
        """The entry in position i (1-based)."""
        _check_int(i, "position", 1, len(self._raw))
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
    entries = _items(entries, f"{what} entries")
    for e in entries:
        if not isinstance(e, Scalar) or e.field != field:
            raise UsageError(f"{what} entries must be scalars of the {what}'s field")
    return tuple(e.value for e in entries)


def _check_vector(x, field: FieldSpec, n: int):
    """UsageError unless x is a Vector over field with n entries."""
    _check_type(x, Vector)
    _check_field(x.field, field)
    if len(x._raw) != n:
        raise UsageError(f"vector of length {len(x._raw)} where {n} is needed")


def _check_space(field: FieldSpec, ambient: int):
    """UsageError unless field is a FieldSpec and ambient a size: an int in 1..sys.maxsize."""
    _check_type(field, FieldSpec)
    _check_int(ambient, "ambient dimension")


def _vector(field: FieldSpec, raw: tuple) -> Vector:
    """A Vector of package-made canonical raw values of field, unchecked."""
    v = object.__new__(Vector)
    v.field = field
    v._raw = raw
    return v


def _unit(field: FieldSpec, n: int, j: int) -> tuple:
    """The raw row of F^n with a 1 at 0-based position j and zeros elsewhere."""
    return (field.zero.value,) * j + (field.one.value,) + (field.zero.value,) * (n - 1 - j)


# ---------------------------------------------------------------------------
# internal mutable-row kernels (0-based); public surfaces convert to 1-based.
# Rows hold raw values: Fractions over Q, residues in range(p) over GF(p);
# only the Q kernels (``_echelon_ints``, ``_int_basis``) work on int rows,
# between their input and answer.

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


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")

# A GF(2) row of n entries is packed as one int, its code: its binary
# digits, first entry highest, so entry j sits at bit n - 1 - j and the
# leading bit is the originating position. Rows of at most _TABLE_WIDTH
# entries convert between tuple and code by lookup, wider ones by bytes
# translation. _ROWS[n] lists the rows of n entries by code; _CODES is the
# inverse. The tables are built at every import, which each
# ``python -m redlime`` run pays, and each width doubles them: at 8 (511
# rows) the build is about 1% of the package's import, at 12 it would be
# over ten times as long. Lookup is the faster way at every tabled width
# (``scripts/kernel_crossover.py --table codec`` checks it). A literal in
# tests/test_packed.py pins the value.
_TABLE_WIDTH = 8
_ROWS = tuple([tuple(product((0, 1), repeat=n)) for n in range(_TABLE_WIDTH + 1)])
_CODES = {row: x for rows in _ROWS for x, row in enumerate(rows)}


def _codes(rows, n: int, flip: bool) -> list:
    """The codes of an iterable of GF(2) rows of n entries, or with flip the
    codes of the reversed rows (entry j at bit j, so the leading bit is the
    terminating position): by table up to ``_TABLE_WIDTH`` entries, the
    reversed tuple looked up; above it by translating each row's bytearray
    (built faster than bytes from a tuple), reversed by a slice."""
    if n <= _TABLE_WIDTH:
        if flip:
            return [_CODES[tuple(r[::-1])] for r in rows]
        return [_CODES[tuple(r)] for r in rows]
    if flip:
        return [int(bytearray(r)[::-1].translate(_DIGITS), 2) for r in rows]
    return [int(bytearray(r).translate(_DIGITS), 2) for r in rows]


def _wide_rows(xs, n: int) -> dict:
    """The GF(2) row tuples of the codes xs of n entries, by code, for rows
    wider than ``_ROWS`` holds: each the code's binary digits, highest first
    (``bin(x | 1 << n)`` keeps the leading zeros), by bytes translation."""
    return {x: tuple(bin(x | 1 << n)[3:].encode().translate(_BITS)) for x in xs}


def _rows_of(xs, n: int):
    """The GF(2) row tuples of the codes xs of n entries, indexed by code:
    ``_ROWS[n]`` up to ``_TABLE_WIDTH`` entries, else ``_wide_rows``."""
    return _ROWS[n] if n <= _TABLE_WIDTH else _wide_rows(xs, n)


def _slot_bytes(bits: int) -> int:
    """Bytes per slot for values below 2**bits: ⌈bits / 8⌉, no more."""
    return -(-bits // 8)


# struct codes by size, smallest first: the value field of a slot of residues
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=256)
def _codec(p: int, k: int, n: int) -> tuple:
    """(pack, unpack) for rows of n residues mod p in slots of k bytes: pack
    takes a sequence of residues to one int, entry j in the k bytes from
    byte k·j, little-endian; unpack takes such an int, every slot a
    residue, back to the tuple. A slot is the smallest struct size holding
    p - 1 followed by zero pad bytes (``"<" + "H4x" * n`` for 6-byte
    GF(65521) slots), so both stay in C at any width the kernels take
    (2·bits(p) bits and more, never below that size); only moduli past
    2**64 go through a ``to_bytes`` per value. Built once per (p, k, n)."""
    for size, code in _FORMATS.items():
        if p <= 1 << 8 * size:
            row = struct.Struct("<" + f"{code}{k - size}x" * n)
            return (lambda r: int.from_bytes(row.pack(*r), "little"),
                    lambda x: row.unpack(x.to_bytes(k * n, "little")))

    def unpack(x: int) -> tuple:
        b = x.to_bytes(k * n, "little")
        return tuple([int.from_bytes(b[j:j + k], "little") for j in range(0, k * n, k)])

    return (lambda r: int.from_bytes(b"".join([v.to_bytes(k, "little") for v in r]), "little"),
            unpack)


# Over odd p, _eliminate runs the slot kernels when both the row count and
# the width, and so the rank bound, are at least _SLOTS_FROM, and the same
# two passes on residue lists otherwise: below it packing and unpacking each
# row cost more than the row operations saved. It is the rank bound from
# which no square, tall or wide case at any prime takes the slot kernels
# more than 1.05 times the list kernels' time (scripts/kernel_crossover.py
# --table slots; CHANGES.md), the larger answer of two runs: 7 and 7, GF(3)
# at rank bound 6 reading 1.16 and 1.17. A literal in tests/test_packed.py
# pins the value.
_SLOTS_FROM = 7

# Over Q, _eliminate takes the keys from the Bareiss pass _echelon_ints while
# no row's lcm of denominators is past _BAREISS_BITS bits, and from
# _int_basis otherwise: every minor Bareiss stores carries the lcm of each
# row it spans, where _int_basis divides rows by their content. It is the
# largest lcm up to which no case takes Bareiss more than 1.05 times
# _int_basis's time (scripts/kernel_crossover.py --table bareiss;
# CHANGES.md), in both of two runs: the next case, 32 rows of rank 16 with
# lcms of 168 bits, read 1.72 and 1.73. A literal in tests/test_packed.py
# pins the value.
_BAREISS_BITS = 157


def _eliminate(rows, n: int, p, lime: bool = False, keys_only: bool = False):
    """The red basis of the span of raw rows of n entries, or with lime its
    lime basis, as {0-based index: row tuple} in ascending index order; with
    keys_only, only the indices, in no set order. p is the modulus, None
    over Q. Rows are a sequence.

    This is the one elimination: it picks one kernel from the field and the
    shape before any row is eliminated. Each kernel computes one side
    naturally; the other side is the same kernel on the reversed rows, its
    answer read backwards. Every field takes two passes: an echelon pass,
    which alone gives the keys, and for the rows a second pass from it.

    - GF(2): rows are packed as bits (``_codes``), entry j at bit n - 1 - j,
      so the leading bit is the originating position and the natural side
      is lime; the red side flips the bit order in the codec.
      ``_echelon_bits`` gives the keys and ``_red_bits`` the rows, each
      looked up by its code in ``_rows_of``.
    - Odd p, on at least ``_SLOTS_FROM`` rows of at least ``_SLOTS_FROM``
      entries, whatever their shape: slots, reduced by ``_slot_reducer``.
      The keys come from the echelon pass ``_echelon_slots``; the rows from
      ``_red_echelon_slots``, that pass and then the standard basis if it
      finds every key, else back-substitution. Below that, the same two
      passes on residue lists: ``_echelon_rows`` and ``_red_rows``.
    - Q: the keys from ``_echelon_ints``, fraction-free on integer rows;
      the rows from ``_red_ints``, whose integer phase ``_int_basis``
      reduces each row as it comes (Gauss–Jordan), since back-substitution
      after a fraction-free echelon pass was slower.

    Any basis whose members terminate at distinct positions terminates
    exactly at the red indices, so the keys come off an echelon pass, with
    no row reduced.
    """
    if p == 2:
        xs = _codes(rows, n, not lime)
        if keys_only:
            keys = _echelon_bits(xs)
            return {n - 1 - t for t in keys} if lime else keys.keys()
        basis = _red_bits(xs, n)
        table = _rows_of(basis.values(), n)
        if lime:
            return {n - 1 - t: table[x] for t, x in reversed(basis.items())}
        return {t: table[x][::-1] for t, x in basis.items()}
    if lime:
        rows = [r[::-1] for r in rows]
    if p is None:
        ints, den = _cleared(rows)
        if not keys_only:
            basis = _red_ints(ints)
        else:
            basis = (_int_basis if den >> _BAREISS_BITS else _echelon_ints)(ints)
    elif len(rows) >= _SLOTS_FROM and n >= _SLOTS_FROM:
        basis = (_echelon_slots if keys_only else _red_echelon_slots)(rows, p)
    else:
        basis = _echelon_rows(rows, p) if keys_only else _red_rows(rows, n, p)
    if keys_only:
        return {n - 1 - k for k in basis} if lime else basis.keys()
    if lime:
        return {n - 1 - k: tuple(basis[k][::-1]) for k in sorted(basis, reverse=True)}
    return {k: tuple(basis[k]) for k in sorted(basis)}


def _cleared(rows) -> tuple:
    """Raw rows over Q as int lists, each row times the lcm of its
    denominators, and the largest of those lcms: the one clearing that
    ``_eliminate`` does for both Q passes."""
    ints, top = [], 1
    for row in rows:
        den = lcm(*[v.denominator for v in row])
        if den > top:
            top = den
        ints.append([v.numerator * (den // v.denominator) for v in row])
    return ints, top


def _echelon_ints(ints) -> dict:
    """An echelon basis over Q of cleared int rows (``_cleared``), by key,
    for the keys alone, by integer-preserving elimination (Bareiss).

    Each row x is cleared against the stored rows b_1, b_2, ... in the
    order they were stored, b_k at its key t_k with pivot d_k = b_k[t_k]
    and d_0 = 1, by ``x = (d_k·x - x[t_k]·b_k) // d_(k-1)``, or when x[t_k]
    is 0 by ``x = d_k·x // d_(k-1)``; a nonzero x is stored at its last
    nonzero entry. Each division is exact: by Sylvester's identity the
    entries of x after step k are, up to sign, the minors of the cleared
    b_1..b_k and x on the columns t_1..t_k and the entry's (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968). So no stored entry exceeds
    Hadamard's bound for its minor, where without the division the entries
    grow exponentially with the rank.

    Every minor carries the lcm of each row it spans, where ``_int_basis``
    divides each row by its content as it goes, so past ``_BAREISS_BITS``
    bits of those lcms ``_eliminate`` takes ``_int_basis`` instead.
    """
    basis: dict = {}
    for x in ints:
        prev = 1
        for t, b in basis.items():
            d, c = b[t], x[t]
            if c:
                x = [(d * u - c * v) // prev for u, v in zip(x, b)]
            elif d != prev:
                x = [d * u // prev for u in x]
            prev = d
        t = _last_nonzero(x)
        if t is not None:
            basis[t] = x
    return basis


def _int_basis(ints) -> dict:
    """The integer phase of ``_red_ints`` on cleared int rows: its stored
    rows by key."""
    basis: dict = {}
    for x in ints:
        for t, b in basis.items():
            c = x[t]
            if c:
                d = b[t]
                g = gcd(d, c)
                d, c = d // g, c // g
                x = [d * u - c * v for u, v in zip(x, b)]
        g = gcd(*x)
        if not g:
            continue
        if g != 1:
            x = [u // g for u in x]
        t = _last_nonzero(x)
        d = x[t]
        for i, b in basis.items():  # clear the new red position from older rows
            c = b[t]
            if c:
                g = gcd(d, c)
                e, c = d // g, c // g
                b = [e * v - c * u for u, v in zip(x, b)]
                g = gcd(*b)
                basis[i] = [v // g for v in b] if g != 1 else b
        basis[t] = x
    return basis


def _red_ints(ints) -> dict:
    """The red basis over Q, fraction-free, for ``_eliminate``, of cleared
    int rows (``_cleared``): the stored rows are primitive int
    lists, each nonzero at its own key and zero at every other key (its
    pivot need not be 1).

    A new row x is cleared at each key t by ``x = d·x - c·b`` for the stored
    row b, with d = b[t] and c = x[t] both divided by their gcd; b is zero
    at the other keys, so these steps leave x's entries there nonzero or
    zero as they were, and their order does not matter. A nonzero x is
    divided by its content, and its new position is cleared from the older
    rows the same way, each changed row divided by its content
    (``_int_basis``). Fractions are built only in the answer: entry v of
    the row stored at t is ``Fraction(v, b[t])``, and the entry at t one
    shared ``Fraction(1)``.
    """
    zero, one = Fraction(0), Fraction(1)
    basis = {}
    for t, b in _int_basis(ints).items():
        d = b[t]
        basis[t] = row = [Fraction(v, d) if v else zero for v in b]
        row[t] = one
    return basis


def _echelon_bits(xs) -> dict:
    """An echelon basis over GF(2) of rows packed as ints, by leading bit:
    each is XORed with the stored row at its leading bit until it is zero
    or leads at a new key. Nothing else is cleared."""
    basis: dict = {}
    for x in xs:
        while x:
            t = x.bit_length() - 1
            b = basis.get(t)
            if b is None:
                basis[t] = x
                break
            x ^= b
    return basis


def _red_bits(xs, n: int) -> dict:
    """The reduced basis over GF(2) of rows of n entries packed as ints, keys
    ascending: the standard basis if ``_echelon_bits`` finds n keys; else,
    keys ascending, each stored row is XORed with the reduced rows at the
    lower keys where it has a set bit: each of those is zero at every other
    key, so it ends zero at all but its own."""
    echelon = _echelon_bits(xs)
    if len(echelon) == n:
        return {t: 1 << t for t in range(n)}
    basis: dict = {}
    for t in sorted(echelon):
        x = echelon[t]
        for i, b in basis.items():
            if x >> i & 1:
                x ^= b
        basis[t] = x
    return basis


def _echelon_rows(rows, p: int) -> dict:
    """An echelon basis over GF(p), p odd, of raw rows as residue lists, by
    key. Each row x is scanned from its last entry down: at an entry c != 0
    at a key, x becomes ``x - c·b`` mod p, whole-row, for the row b stored
    there, which ends in 1 there and is zero past it, so the entries above
    stay zero; at the first c != 0 at no key, x is scaled by the inverse of
    c and stored. Nothing else is cleared."""
    basis: dict = {}
    for x in rows:
        t = len(x) - 1
        while t >= 0:
            c = x[t]
            if not c:
                t -= 1
                continue
            b = basis.get(t)
            if b is None:
                if c != 1:
                    inv = pow(c, -1, p)
                    x = [v * inv % p for v in x]
                basis[t] = x
                break
            x = [(u - c * v) % p for u, v in zip(x, b)]
            t -= 1
    return basis


def _red_rows(rows, n: int, p: int) -> dict:
    """The red basis over GF(p), p odd, of raw rows of n entries as residue
    lists, in the two passes of ``_red_bits``: the standard basis if
    ``_echelon_rows`` finds n keys; else, keys ascending, each stored row x
    becomes ``x - x[i]·b`` mod p at each lower key i where it is nonzero,
    for the reduced row b there, which is zero at every other lower key and
    past its own."""
    echelon = _echelon_rows(rows, p)
    if len(echelon) == n:
        return {t: [0] * t + [1] + [0] * (n - 1 - t) for t in range(n)}
    basis: dict = {}
    for t in sorted(echelon):
        x = echelon[t]
        for i, b in basis.items():
            c = x[i]
            if c:
                x = [(u - c * v) % p for u, v in zip(x, b)]
        basis[t] = x
    return basis


@lru_cache(maxsize=256)
def _slot_reducer(p: int, terms: int, n: int) -> tuple:
    """(k, reduce) for rows of n entries over GF(p), p odd, packed into one
    int with k bytes a slot: reduce takes such a row whose slots are each
    below 2**s, s = 2·bits(p) + bits(terms), which holds a sum of up to
    ``terms`` products of two residues and one residue more, to the same
    row with every slot reduced into range(p), in a fixed handful of big-int
    operations on all slots at once (Barrett reduction), masks keeping each
    slot's own bits.

    With a = bits(p) - 1, so 2**a <= p, and M = ⌊2**s / p⌋, a slot x gets
    the quotient estimate q̂ = ⌊⌊x / 2**a⌋·M / 2**(s - a)⌋ of q = ⌊x / p⌋.
    Each floored factor is at most its unfloored value, so q̂ <= x / p and
    q̂ <= q. Below 2**a, x gives q̂ = q = 0. From 2**a on, each factor is
    also more than its unfloored value less 1, which is not negative, so
    ⌊x / 2**a⌋·M / 2**(s - a) >= (x / 2**a - 1)(2**s / p - 1) / 2**(s - a)
    > x/p - x / 2**s - 2**a / p >= x/p - 2, as x < 2**s and 2**a <= p:
    q̂ > x/p - 3, so q̂ >= q - 2 and x - q̂·p is in range(3p). Two rounds
    then each subtract p from every slot of at least p. A round adds
    2**f - p to each slot, f = bits(p) + 1: a slot r in range(3p) becomes
    r + 2**f - p, which is at least 2**f exactly when r >= p and below
    2**(f + 1) as 2p < 2**f, so its bit f is the flag.

    No slot carries into the next or borrows from it while each step fits
    in its w = 8k bits: ⌊x / 2**a⌋ < 2**(s - a) and M <= 2**(s - a), so
    their product is below 2**(2(s - a)); q̂·p <= x; a round's sum is below
    2**(f + 1). And a shift by a or by s - a, masked to s - a bits a slot,
    keeps only the slot's own bits: those shifted in from the slot above
    land at w - a or w - (s - a), both at least s - a. 2(s - a) =
    2·(bits(p) + bits(terms) + 1) exceeds s and f + 1, so those bits, in
    whole bytes (``_slot_bytes``), are the slot width. Built once per
    (p, terms, n): a tiny product costs less than building the masks.
    """
    b = p.bit_length()
    a, s, f = b - 1, 2 * b + terms.bit_length(), b + 1
    k = _slot_bytes(2 * (s - a))
    ones = ((1 << 8 * k * n) - 1) // ((1 << 8 * k) - 1)  # a 1 in every slot
    low, m, over = ones * ((1 << s - a) - 1), (1 << s) // p, ones * ((1 << f) - p)

    def reduce(x: int) -> int:
        x -= ((x >> a & low) * m >> s - a & low) * p
        x -= ((x + over) >> f & ones) * p
        return x - ((x + over) >> f & ones) * p

    return k, reduce


def _echelon_slots(rows, p: int) -> dict:
    """An echelon basis over GF(p), p odd, of a nonempty sequence of raw
    rows of n entries, by key. Each row is packed into one int, entry j in
    slot j of w bits, so a row operation is one big-int multiply-add
    ``x += (p - c)·b`` over every slot at once; a slot is reduced only as
    it is read, and a row only by the reducer, ``_slot_reducer(p, n, n)``,
    which also sets w.
    Stored rows are reduced and scaled to end in 1. A new row x is scanned
    from its top slot down: slot j is read as ``(x >> w·j & mask) % p``,
    and where that is some c != 0 at a key, x gains ``(p - c)·b`` for the
    row b stored there, which clears slot j and changes only slots below
    it. At the first nonzero slot that is no key, x is reduced, multiplied
    by the inverse of c, reduced again and stored.

    With q = p - 1, a slot of x starts at most q and gains at most n
    products (p - c)·v with p - c <= q and v <= q, since b is reduced: so
    it stays at most q + n·q² < 2**(2·bits(p) + bits(n)), as
    q + n·q² <= (n + 1)·q² - q <= 2**bits(n)·q² and q² < 2**(2·bits(p)).
    That is the bound ``_slot_reducer`` takes for n terms; a reduced slot
    times the inverse is below p², within it too.
    """
    n = len(rows[0])
    k, reduce = _slot_reducer(p, n, n)
    pack = _codec(p, k, n)[0]
    w = 8 * k
    mask = (1 << w) - 1
    basis: dict = {}
    for row in rows:
        x = pack(row)
        for j in range((x.bit_length() - 1) // w, -1, -1):
            c = (x >> w * j & mask) % p
            if not c:
                continue
            b = basis.get(j)
            if b is None:
                basis[j] = reduce(reduce(x) * pow(c, -1, p))
                break
            x += (p - c) * b
    return basis


def _red_echelon_slots(rows, p: int) -> dict:
    """The red basis over GF(p), p odd, of a nonempty sequence of raw rows
    of n entries, of any shape, in the two passes of ``_red_bits``: the
    standard basis if ``_echelon_slots`` finds n keys; else, keys
    ascending, each stored row x is cleared by one sum
    ``x + Σ (p - x[i])·b_i`` over the reduced rows b_i at the lower keys,
    then reduced by the reducer the echelon pass used. With q = p - 1 the
    sum's slots stay at most q + (n - 1)·q², within its bound."""
    n = len(rows[0])
    echelon = _echelon_slots(rows, p)
    if len(echelon) == n:
        return {t: [0] * t + [1] + [0] * (n - 1 - t) for t in range(n)}
    k, reduce = _slot_reducer(p, n, n)
    unpack = _codec(p, k, n)[1]
    packed, basis = {}, {}
    for t, x in sorted(echelon.items()):
        row = unpack(x)
        packed[t] = x = reduce(sum([(p - row[i]) * b for i, b in packed.items() if row[i]], x))
        basis[t] = unpack(x)
    return basis


def _product(field: FieldSpec, coefficient_rows, rows, m: int) -> list:
    """Raw row tuples of the product: for each coefficient row c, the sum of
    c[j]·rows[j] over raw rows of m entries, packed as in ``_eliminate``
    (bits over GF(2), in the one codec; slots over odd p, in the residue
    codec: a slot of one output row's sum adds at most len(rows) products
    of two residues, so ``_slot_reducer`` with len(rows) terms sets the
    width and reduces the sum while packed); ``_axpy`` adds them over Q."""
    p = field.modulus
    if p == 2:
        others = _codes(rows, m, False)
        xs = [reduce(xor, compress(others, r), 0) for r in coefficient_rows]
        table = _rows_of(xs, m)
        return [table[x] for x in xs]
    if p is not None:
        k, reduce_slots = _slot_reducer(p, len(rows), m)
        pack, unpack = _codec(p, k, m)
        others = [pack(r) for r in rows]
        return [unpack(reduce_slots(sum(map(mul, r, others)))) for r in coefficient_rows]
    out = []
    for r in coefficient_rows:
        acc = [field.zero.value] * m
        for c, src in zip(r, rows):
            if c:
                _axpy(acc, -c, src, m, p)
        out.append(tuple(acc))
    return out


class _Canonical:
    """What Subspace (the red side) and LimeBasis (the lime side) share: a
    field, an ambient dimension, the indices, and the basic elements in index
    order as one tuple of raw rows (``_raw``), whose public Vector view builds
    fresh Vectors on each access. The public constructor checks the parts once;
    package-made parts enter unchecked through ``_made``."""

    __slots__ = ("field", "ambient", "_indices", "_raw")
    _side = ""

    def _set(self, field: FieldSpec, ambient: int, indices, vectors):
        _check_space(field, ambient)
        side = self._side
        indices, vectors = _items(indices, f"{side} indices"), _items(vectors, f"{side} basis")
        if len(indices) != len(vectors):
            raise UsageError("index and vector counts differ")
        for prev, i in zip((0, *indices), indices):  # strictly increasing
            _check_int(i, f"{side} index", prev + 1, ambient)
        for v in vectors:
            _check_vector(v, field, ambient)
        raw = tuple(v._raw for v in vectors)
        for i, r in zip(indices, raw):
            if r[i - 1] != 1:
                raise UsageError(f"{side}-basic element for index {i} must carry a 1 there")
            outside = range(i, ambient) if side == "red" else range(0, i - 1)
            for p in [*outside, *(l - 1 for l in indices if l != i)]:
                if r[p]:
                    raise UsageError(
                        f"{side}-basic element for index {i} must vanish at position {p + 1}")
        self.field, self.ambient, self._indices, self._raw = field, ambient, indices, raw

    @classmethod
    def _made(cls, field: FieldSpec, ambient: int, indices: tuple, raw: tuple):
        """A value of package-made canonical parts (raw rows as tuples), unchecked."""
        w = object.__new__(cls)
        w.field, w.ambient, w._indices, w._raw = field, ambient, indices, raw
        return w

    def _vectors(self) -> tuple:
        return tuple([_vector(self.field, r) for r in self._raw])

    @property
    def dimension(self) -> int:
        """Number of indices; a subspace has as many red indices as lime ones,
        and that is the common length of all its coordinate systems."""
        return len(self._indices)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self._indices == other._indices and self._raw == other._raw)

    def __hash__(self):
        return hash((self.field, self.ambient, self._indices, self._raw))

    def __repr__(self):
        indices = list(self._indices)
        return f"{type(self).__name__}({self.field}, n={self.ambient}, {self._side}={indices})"


class Subspace(_Canonical):
    """A subspace held as its red basis; structural equality is set equality."""

    __slots__ = ()
    _side = "red"
    red_indices = _Canonical._indices  # the index slot under its public name
    red_basis = property(_Canonical._vectors)

    def __init__(self, field: FieldSpec, ambient: int,
                 red_indices: Sequence[int], red_basis: Sequence[Vector]):
        self._set(field, ambient, red_indices, red_basis)

    @classmethod
    def zero_subspace(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full_space(cls, field: FieldSpec, ambient: int) -> "Subspace":
        _check_space(field, ambient)
        return cls._made(field, ambient, tuple(range(1, ambient + 1)),
                         tuple([_unit(field, ambient, j) for j in range(ambient)]))

    def is_zero(self) -> bool:
        return not self._indices

    def __contains__(self, x: Vector) -> bool:
        return contains_vector(self, x)

    def __le__(self, other: "Subspace") -> bool:
        return subspace_leq(self, other)


class LimeBasis(_Canonical):
    """Canonical originating-side basis: each vector starts with a 1 at its
    lime index and is zero at every other lime index."""

    __slots__ = ()
    _side = "lime"
    lime_indices = _Canonical._indices  # the index slot under its public name
    vectors = property(_Canonical._vectors)

    def __init__(self, field: FieldSpec, ambient: int,
                 lime_indices: Sequence[int], vectors: Sequence[Vector]):
        self._set(field, ambient, lime_indices, vectors)

    @classmethod
    def empty(cls, field: FieldSpec, ambient: int) -> "LimeBasis":
        return cls(field, ambient, (), ())


def _span(field, n, rows, lime: bool = False):
    """The span of raw rows in F^n: its red basis as a Subspace, or with
    lime its lime basis as a LimeBasis."""
    basis = _eliminate(rows, n, field.modulus, lime)
    return (LimeBasis if lime else Subspace)._made(
        field, n, tuple([i + 1 for i in basis]), tuple(basis.values()))


def _common_field_ambient(generators, ambient, field):
    """The one intake of a caller's vector list: the vectors as a tuple, and
    the field and ambient, by default the first vector's, that all share."""
    generators = _items(generators, "vectors")
    if generators:
        g0 = generators[0]
        _check_type(g0, Vector)
        field = g0.field if field is None else field
        ambient = len(g0._raw) if ambient is None else ambient
    elif field is None or ambient is None:
        raise UsageError("an empty vector list has no field or ambient of its own")
    _check_space(field, ambient)
    for g in generators:
        _check_vector(g, field, ambient)
    return generators, field, ambient


def span_red_basis(generators: Sequence[Vector], ambient: Optional[int] = None,
                   field: Optional[FieldSpec] = None) -> Subspace:
    """Canonical red basis of span(generators): one elimination of their
    raw rows by ``_eliminate``, which picks its kernel from the field and
    the shape of the rows. Zero generators add nothing.
    """
    generators, field, ambient = _common_field_ambient(generators, ambient, field)
    return _span(field, ambient, [g._raw for g in generators])


def lime_basis(w: Subspace) -> LimeBasis:
    """Canonical lime basis of the same span: the red basis of the reversed
    span, read backwards.

    The span always has as many lime indices as red ones.
    """
    _check_type(w, Subspace)
    return _span(w.field, w.ambient, w._raw, lime=True)


def append_lime(basis: LimeBasis, y: Vector) -> LimeBasis:
    """The lime basis of the span of basis and y.

    The basis's vectors and y are eliminated afresh, as one list of rows,
    rather than y being inserted into the existing basis. If y lies in the
    current span, basis itself is returned; otherwise the span grows by
    exactly one dimension.
    """
    _check_type(basis, LimeBasis)
    _check_vector(y, basis.field, basis.ambient)
    grown = _span(basis.field, basis.ambient, basis._raw + (y._raw,), lime=True)
    return basis if grown.dimension == basis.dimension else grown


def _holds(w: Subspace, rows) -> bool:
    """True iff every raw row of w's ambient lies in w: each equals the
    combination of w's red-basic elements with its red-position entries."""
    coefficient_rows = [[x[i - 1] for i in w._indices] for x in rows]
    return _product(w.field, coefficient_rows, w._raw, w.ambient) == list(rows)


def contains_vector(w: Subspace, x: Vector) -> bool:
    """Membership test: x belongs to w exactly when x equals the combination
    of red-basic elements whose coefficients are x's entries at the red
    positions."""
    _check_type(w, Subspace)
    _check_vector(x, w.field, w.ambient)
    return _holds(w, [x._raw])


def coordinates(w: Subspace, x: Vector) -> tuple:
    """Coefficients of a member in the red basis: its entries at the red
    positions, in index order. DomainError if x is not a member."""
    if not contains_vector(w, x):
        raise DomainError("vector is not a member of the subspace")
    return _scalars(w.field, [x._raw[i - 1] for i in w.red_indices])


def element_from_red_entries(w: Subspace, coefficients) -> Vector:
    """The unique member whose red-position entries are the given scalars."""
    _check_type(w, Subspace)
    coeffs = w.field._coerce_row(coefficients, "coefficients")
    if len(coeffs) != w.dimension:
        raise UsageError(f"expected {w.dimension} coefficients, got {len(coeffs)}")
    return _vector(w.field, _product(w.field, [coeffs], w._raw, w.ambient)[0])


def subspace_leq(w: Subspace, v: Subspace) -> bool:
    """True iff w is contained in v: v holds each of w's red-basic elements."""
    _check_type(w, Subspace)
    _check_type(v, Subspace)
    _check_field(v.field, w.field)
    if w.ambient != v.ambient:
        raise UsageError("mismatched ambient dimensions")
    return _holds(v, w._raw)


def is_coordinate_system(vectors: Sequence[Vector], w: Subspace) -> bool:
    """True iff the list spans w, starts with a nonzero vector, and no entry
    lies in the span of its predecessors; equivalently, every member of w
    has exactly one expression as a combination of the list."""
    _check_type(w, Subspace)
    vectors, _, _ = _common_field_ambient(vectors, w.ambient, w.field)
    return (len(vectors) == w.dimension
            and _span(w.field, w.ambient, [v._raw for v in vectors]) == w)
