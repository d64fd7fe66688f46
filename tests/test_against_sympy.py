"""Answers over Q cross-checked against sympy, when sympy is installed.

sympy is not a dependency of redlime; without it these tests skip. It gives
Q a referee independent of both the red/lime kernel and ``textbook_rref``.
"""

from fractions import Fraction

import pytest
from hypothesis import given

import redlime as rl

from conftest import Q, matrices

sympy = pytest.importorskip("sympy")


def _sympy_matrix(a):
    return sympy.Matrix([[sympy.Rational(e.value.numerator, e.value.denominator)
                          for e in row] for row in a.rows])


def _fractions(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


def _check_against_sympy(a):
    s = _sympy_matrix(a)
    assert rl.rref(a) == rl.Matrix.from_values(Q, _fractions(s.rref()[0]))
    assert rl.rank(a) == s.rank()
    null = [rl.Vector.from_values(Q, [f for f, in _fractions(v)]) for v in s.nullspace()]
    assert rl.nullspace(a) == rl.span_red_basis(null, a.ncols, Q)


def _random_q_matrix(rng, n, m, rank):
    """An n-by-m product of random factors with entries a/b, so its rank is
    at most ``rank`` and usually equal to it."""
    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    b = [[entry() for _ in range(rank)] for _ in range(n)]
    c = [[entry() for _ in range(m)] for _ in range(rank)]
    return rl.Matrix.from_values(Q, [[sum(x * y for x, y in zip(r, col)) for col in zip(*c)]
                                     for r in b])


def test_seeded_q_matrices_match_sympy(rng):
    for _ in range(40):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        _check_against_sympy(_random_q_matrix(rng, n, m, rng.randint(1, min(n, m))))


@given(matrices().filter(lambda a: a.field == Q))
def test_q_matrices_match_sympy(a):
    _check_against_sympy(a)
