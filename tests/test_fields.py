import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import redlime as rl
from redlime.errors import DomainError, ParseError, UsageError
from redlime.fields import MODULUS_LIMIT, _is_prime

from conftest import ALL_FIELDS, GF2, GF3, GF5, Q, fields_st, scalars


def test_parse_normalizes_rationals():
    assert rl.parse_scalar("2/4", Q) == Q.scalar(Fraction(1, 2))
    assert str(rl.parse_scalar("2/4", Q)) == "1/2"


def test_parse_reduces_mod_p():
    assert rl.parse_scalar("7", GF5) == GF5.scalar(2)
    assert rl.parse_scalar("-1", GF2) == GF2.scalar(1)


@pytest.mark.parametrize("token", ["", "x", "+3", "1/0", "2/-3", "1/2/3", "1 2", "3.5"])
def test_parse_rejects_malformed_tokens(token):
    with pytest.raises(ParseError):
        rl.parse_scalar(token, Q)


def test_parse_rejects_fractions_over_prime_fields():
    with pytest.raises(ParseError):
        rl.parse_scalar("1/2", GF5)


# 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
# bases 2, 3, 5 and 7.
@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15, 91, 561, 3215031751])
def test_non_prime_moduli_rejected(p):
    with pytest.raises(DomainError):
        rl.gf(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97, 2**61 - 1])
def test_prime_moduli_accepted(p):
    field = rl.gf(p)
    assert field.modulus == p
    assert field.scalar(-1).inverse() == field.scalar(-1) == field.scalar(p - 1)


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
    assert all(_is_prime(p) == by_trial_division(p) for p in range(10**4))


@pytest.mark.parametrize("p", [MODULUS_LIMIT, 2**127 - 1])
def test_moduli_past_the_limit_rejected_promptly(p):
    # MODULUS_LIMIT itself is a strong pseudoprime to every witness
    start = time.monotonic()
    with pytest.raises(DomainError, match=str(MODULUS_LIMIT)):
        rl.gf(p)
    assert time.monotonic() - start < 1


def test_non_int_modulus_is_usage_error():
    with pytest.raises(UsageError):
        rl.gf(2.5)


def test_modular_arithmetic():
    assert GF5.scalar(3) + GF5.scalar(4) == GF5.scalar(2)
    assert GF5.scalar(3) * GF5.scalar(4) == GF5.scalar(2)
    assert GF5.scalar(1) - GF5.scalar(3) == GF5.scalar(3)


def test_rational_arithmetic():
    half, third = Q.scalar(Fraction(1, 2)), Q.scalar(Fraction(1, 3))
    assert half + third == Q.scalar(Fraction(5, 6))
    assert half * third == Q.scalar(Fraction(1, 6))


def test_inverses():
    assert GF5.scalar(3).inverse() == GF5.scalar(2)
    assert Q.scalar(Fraction(2, 3)).inverse() == Q.scalar(Fraction(3, 2))
    for field in ALL_FIELDS:
        assert field.one.inverse() == field.one


def test_zero_has_no_inverse():
    for field in ALL_FIELDS:
        with pytest.raises(DomainError):
            field.zero.inverse()
        with pytest.raises(DomainError):
            field.one / field.zero


def test_mixed_fields_rejected():
    with pytest.raises(UsageError):
        GF2.scalar(1) + GF3.scalar(1)
    with pytest.raises(UsageError):
        GF5.scalar(Fraction(1, 2))


@given(fields_st, st.data())
def test_field_axioms(field, data):
    a = data.draw(scalars(field))
    b = data.draw(scalars(field))
    c = data.draw(scalars(field))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == field.zero
    assert a * field.one == a
    assert a + field.zero == a
    if b:
        assert b * b.inverse() == field.one
        assert (a / b) * b == a


@given(fields_st, st.data())
def test_parse_render_round_trip(field, data):
    a = data.draw(scalars(field))
    assert rl.parse_scalar(str(a), field) == a


def test_representation_is_unique():
    assert Q.scalar(Fraction(2, 4)) == Q.scalar(Fraction(1, 2))
    assert hash(Q.scalar(Fraction(2, 4))) == hash(Q.scalar(Fraction(1, 2)))
    assert GF5.scalar(12) == GF5.scalar(2)
    assert GF5.scalar(12).value == 2


@pytest.mark.parametrize("field", ALL_FIELDS + (rl.gf(65521),), ids=str)
def test_row_coercion_matches_coercion_of_each_value(field):
    ints = (0, 1, -1, 7, -12, 65521, 10**30, -(10**30))
    mixed = ints + (True, False, Fraction(6), Fraction(-4, 2), field.scalar(3), field.zero)
    rows = [ints, mixed, (True, 2), (field.one,), [5, -5]]
    if not field.is_prime_field:
        rows.append((Fraction(1, 3), 2))
    for row in rows:
        got, want = field._coerce_row(row, "a row"), tuple(map(field._coerce, row))
        assert got == want and list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_row_coercion_refuses_what_coercion_refuses(field):
    other = GF3 if field != GF3 else GF5
    bad = [1.0, "1", other.scalar(1)]
    if field.is_prime_field:
        bad.append(Fraction(1, 2))
    for value in bad:
        with pytest.raises(UsageError) as one:
            field._coerce(value)
        with pytest.raises(UsageError) as row:
            field._coerce_row((1, value, 2), "a row")
        assert str(row.value) == str(one.value)
