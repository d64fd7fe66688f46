"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every value is kept in a unique normalized form (coprime numerator and
positive denominator for rationals, residue in [0, p-1] for GF(p)), so
equality and hashing are plain representational comparisons.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import (DomainError, ParseError, ResourceError, UsageError, _check_field,
                     _check_int, _check_type, _items)

_INT_RE = re.compile(r"-?[0-9]+\Z")
_FRACTION_RE = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)\Z")


# Miller-Rabin with the first 13 primes as witnesses is exact below this
# bound (Sorenson and Webster, 2015); larger moduli are refused.
MODULUS_LIMIT = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for p < MODULUS_LIMIT."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The coefficient field: Q when ``modulus`` is None, else GF(modulus).
    ``zero`` and ``one`` are its Scalars 0 and 1."""

    __slots__ = ("modulus", "zero", "one")

    def __init__(self, modulus: int | None = None):
        if modulus is not None:
            _check_int(modulus, "modulus", float("-inf"), float("inf"))
            if modulus >= MODULUS_LIMIT:
                raise DomainError(f"modulus is not below the limit {MODULUS_LIMIT}")
            if not _is_prime(modulus):
                raise DomainError(f"modulus {modulus} is not prime")
        self.modulus = modulus
        self.zero = _scalar(self, self._coerce(0))
        self.one = _scalar(self, self._coerce(1))

    @property
    def is_prime_field(self) -> bool:
        return self.modulus is not None

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or same-field Scalar into this field."""
        return Scalar(self, value)

    def _coerce(self, value):
        """The canonical raw value of an int, Fraction, or same-field Scalar:
        a Fraction over Q, a residue in range(p) over GF(p)."""
        if isinstance(value, Scalar):
            _check_field(value.field, self)
            return value.value
        if not isinstance(value, (int, Fraction)):
            raise UsageError(
                f"cannot make a {self} scalar from {type(value).__name__}")
        if self.modulus is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise UsageError(f"cannot coerce non-integer {value} into {self}")
            value = value.numerator
        return value % self.modulus

    def _coerce_row(self, values, what: str) -> tuple:
        """``_coerce`` of each of the values ``what`` names, as a tuple. Over
        GF(p) a row of values that are all exactly ``int`` is reduced in one
        pass; any other goes value by value, with the same checks and errors."""
        values = _items(values, what)
        p = self.modulus
        if p is not None and set(map(type, values)) == {int}:
            return tuple([v % p for v in values])
        return tuple(map(self._coerce, values))

    def elements(self):
        """Iterate every element (finite fields only)."""
        if self.modulus is None:
            raise UsageError("cannot enumerate the rationals")
        return (_scalar(self, r) for r in range(self.modulus))

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self):
        return hash((self.modulus,))

    def __str__(self):
        return "Q" if self.modulus is None else f"GF({self.modulus})"

    def __repr__(self):
        return f"FieldSpec(modulus={self.modulus})"


def gf(p: int) -> FieldSpec:
    """The prime field GF(p); raises DomainError unless p is prime."""
    return FieldSpec(p)


class Scalar:
    """One exact field element.

    ``value`` is a ``Fraction`` over Q and a residue int over GF(p); both
    representations are canonical, so ``==`` and ``hash`` need no extra work.
    Arithmetic insists that both operands carry the same FieldSpec. The
    constructor coerces the value; ``_scalar`` builds package-made ones.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        _check_type(field, FieldSpec)
        self.field = field
        self.value = field._coerce(value)

    def _reduced(self, value) -> "Scalar":
        p = self.field.modulus
        return _scalar(self.field, value if p is None else value % p)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        _check_field(other.field, self.field)
        return self._reduced(self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        _check_field(other.field, self.field)
        return self._reduced(self.value - other.value)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        _check_field(other.field, self.field)
        return self._reduced(self.value * other.value)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        _check_field(other.field, self.field)
        return self * other.inverse()

    def __neg__(self):
        return self._reduced(-self.value)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse; DomainError on zero."""
        if not self.value:
            raise DomainError("zero has no multiplicative inverse")
        return _scalar(self.field, _inverse(self.value, self.field.modulus))

    def is_zero(self) -> bool:
        return not self.value

    def is_one(self) -> bool:
        return self.value == 1

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return _text(self.field, self.value)

    def __repr__(self):
        return f"Scalar({self.value}, {self.field})"


def _scalar(field: FieldSpec, value) -> Scalar:
    """A Scalar of a package-made canonical raw value of field, unchecked."""
    s = object.__new__(Scalar)
    s.field, s.value = field, value
    return s


RATIONALS = FieldSpec()


def _inverse(value, p):
    """Inverse of a nonzero raw value: a Fraction over Q, a residue mod p."""
    return 1 / value if p is None else pow(value, -1, p)


def _scalars(field: FieldSpec, values) -> tuple:
    """Scalars for already-reduced raw values; zeros and ones share the
    field's cached ``zero`` and ``one``."""
    zero, one = field.zero, field.one
    return tuple(zero if not v else one if v == 1 else _scalar(field, v) for v in values)


def _random_scalar(field: FieldSpec, rng, bound: int) -> Scalar:
    """A scalar drawn from rng: any residue over GF(p); over Q, a/b with
    -bound <= a <= bound and 1 <= b <= bound."""
    if field.is_prime_field:
        return field.scalar(rng.randrange(field.modulus))
    return field.scalar(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))


def _text(field: FieldSpec, value) -> str:
    """The text of one raw value of field."""
    try:
        return str(value)
    except ValueError:  # more digits than int() converts: the limit parse_scalar enforces
        raise ResourceError(
            f"a {field} value has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's limit for integer text") from None


def _row_text(field: FieldSpec, row) -> str:
    """The text of one raw row of field, its values space-separated."""
    if field.is_prime_field:  # residues below p, whose text is never too long
        return " ".join(map(str, row))
    return " ".join([_text(field, v) for v in row])


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse one scalar token: ``-?[0-9]+`` anywhere, ``a/b`` over Q only."""
    _check_type(text, str)
    _check_type(field, FieldSpec)
    return _scalar(field, _parse_scalar(text, field))


def _parse_scalar(text: str, field: FieldSpec):
    """The canonical raw value of a str token of a FieldSpec, unchecked: a
    Fraction over Q, a residue in range(p) over GF(p)."""
    m = _FRACTION_RE.match(text)
    if not (m or _INT_RE.match(text)):
        raise ParseError(f"malformed scalar token {text!r}")
    if m and field.is_prime_field:
        raise ParseError(f"fraction {text!r} is not a valid {field} scalar")
    try:
        value = Fraction(int(m.group(1)), int(m.group(2))) if m else int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"scalar token of {len(text)} characters has too many digits") from None
    if field.modulus is not None:
        return value % field.modulus
    return value if m else Fraction(value)
