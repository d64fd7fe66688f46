"""Shared fields, hypothesis strategies, and small builders for the suite."""

import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import redlime as rl
from redlime.fields import _random_scalar

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")

Q = rl.RATIONALS
GF2 = rl.gf(2)
GF3 = rl.gf(3)
GF5 = rl.gf(5)
ALL_FIELDS = (Q, GF2, GF3, GF5)

# coefficient patterns of three 18-position subspaces sharing one signature;
# positions with equal labels share a free coefficient, 0 pins a zero
W18 = (0, 1, 2, 3, 4, 0, 1, 5, 6, 0, 4, 6, 7, 7, 8, 9, 8, 10)
Z18 = (0, 1, 2, 3, 4, 4, 1, 5, 6, 6, 4, 6, 7, 7, 8, 9, 8, 10)
X18 = (0, 1, 2, 3, 4, 1, 1, 5, 6, 4, 4, 6, 7, 7, 8, 9, 8, 10)
SIG18 = "nlbblnrblnrrlrlbrb"


def pytest_addoption(parser):
    parser.addoption("--seed", type=int, default=20260810,
                     help="seed for the randomized corpora (printed in the header)")


def pytest_report_header(config):
    return f"randomized corpora seed: {config.getoption('--seed')}"


@pytest.fixture
def rng(request):
    """Fresh deterministic generator per test, so order cannot matter."""
    return random.Random(request.config.getoption("--seed"))


def vec(field, *values):
    return rl.Vector.from_values(field, values)


def mat(field, rows):
    return rl.Matrix.from_values(field, rows)


def span_of(field, n, *rows):
    return rl.span_red_basis([vec(field, *r) for r in rows], n, field)


@lru_cache(maxsize=None)
def all_subspaces(n, p):
    return tuple(rl.enumerate_subspaces(n, p))


# --- hypothesis strategies -------------------------------------------------

def scalars(field):
    if field.is_prime_field:
        return st.integers(0, field.modulus - 1).map(field.scalar)
    return st.fractions(min_value=-5, max_value=5, max_denominator=6).map(field.scalar)


def vectors(field, n):
    return st.lists(scalars(field), min_size=n, max_size=n).map(
        lambda es: rl.Vector(field, es))


fields_st = st.sampled_from(ALL_FIELDS)


@st.composite
def field_and_vectors(draw, min_vectors=1, max_vectors=4, max_n=5):
    field = draw(fields_st)
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(min_vectors, max_vectors))
    vs = draw(st.lists(vectors(field, n), min_size=count, max_size=count))
    return field, n, vs


@st.composite
def subspaces(draw, max_n=5, max_generators=4):
    field, n, vs = draw(field_and_vectors(min_vectors=0,
                                          max_vectors=max_generators, max_n=max_n))
    return rl.span_red_basis(vs, n, field)


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    field = draw(fields_st)
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(scalars(field), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return rl.Matrix(field, rows)


def random_member(w, rng):
    """A random element of w via random red-entry coefficients."""
    coeffs = [_random_scalar(w.field, rng, 6) for _ in range(w.dimension)]
    return rl.element_from_red_entries(w, coeffs)


def random_vector(field, n, rng):
    return rl.Vector(field, tuple(_random_scalar(field, rng, 6) for _ in range(n)))


def random_matrix(field, n, m, rng):
    return rl.Matrix(field, [[_random_scalar(field, rng, 6) for _ in range(m)]
                             for _ in range(n)])
