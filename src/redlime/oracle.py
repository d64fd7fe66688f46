"""Brute-force ground truth over finite fields.

Everything here works straight from definitions: spans are enumerated as
literal sets of combinations, indices are read off those sets, complements
are found by filtering on dot products, row reduction is the classical
swap/eliminate/back-substitute routine, and each subspace is listed as the
red basis its pattern of red indices and free entries fixes. None of it runs
the elimination kernels it is meant to check, so the tests can let the two
referee each other. Spans, complements and row reduction stay on Scalar
arithmetic, reading each value's ``entries`` view once; the subspace listing
writes raw rows, the form a Subspace stores. Budgets are explicit; these
routines are deliberately naive.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Iterator, Optional

from .errors import ResourceError, UsageError, _check_int, _check_type
from .fields import FieldSpec, gf
from .matrix import Matrix
from .signatures import signature_from_indices
from .subspace import (Subspace, Vector, originating_index, terminating_index, _check_space,
                       _common_field_ambient)

DEFAULT_BUDGET = 10 ** 6


def _check_enumeration(field: FieldSpec, budget):
    """UsageError unless field is finite and budget is an int or a float
    (math.inf too), not a bool or NaN."""
    if not field.is_prime_field:
        raise UsageError("enumeration needs a finite field")
    if isinstance(budget, bool) or not isinstance(budget, (int, float)) or budget != budget:
        raise UsageError(f"budget must be an int or a float, not {budget!r}")


def enumerate_span(generators, ambient: Optional[int] = None,
                   field: Optional[FieldSpec] = None,
                   budget: int = DEFAULT_BUDGET) -> set:
    """The span as a literal set: every coefficient combination, one
    generator at a time. Result size is p^dim."""
    generators, field, ambient = _common_field_ambient(generators, ambient, field)
    _check_enumeration(field, budget)
    scalars = list(field.elements())
    span = {(field.zero,) * ambient}
    for g in [g.entries for g in generators]:
        if g in span:
            continue
        if len(span) * len(scalars) > budget:
            raise ResourceError(f"span enumeration would exceed {budget} vectors")
        span = {tuple(a + c * b for a, b in zip(v, g)) for v in span for c in scalars}
    return {Vector(field, v) for v in span}


def brute_indices(generators, ambient: Optional[int] = None,
                  field: Optional[FieldSpec] = None,
                  budget: int = DEFAULT_BUDGET) -> tuple:
    """Red and lime index sets read off the enumerated span, plus the
    signature they assemble into."""
    span = enumerate_span(generators, ambient, field, budget)
    red = frozenset(terminating_index(v) for v in span if not v.is_zero())
    lime = frozenset(originating_index(v) for v in span if not v.is_zero())
    return red, lime, signature_from_indices(red, lime, len(next(iter(span))))


def all_vectors(field: FieldSpec, n: int, budget: int = DEFAULT_BUDGET) -> Iterator[Vector]:
    """Every vector of GF(p)^n, in lexicographic order of entries."""
    _check_space(field, n)
    _check_enumeration(field, budget)
    # p^n >= 2^n, so a large n is refused before the power is formed.
    if budget < 1 or n - 1 > math.log2(budget) or field.modulus ** n > budget:
        raise ResourceError(f"enumerating {field}^{n} would exceed {budget} vectors")
    scalars = list(field.elements())
    for combo in itertools.product(scalars, repeat=n):
        yield Vector(field, combo)


def brute_complement(generators, ambient: Optional[int] = None,
                     field: Optional[FieldSpec] = None,
                     budget: int = DEFAULT_BUDGET) -> set:
    """All vectors orthogonal to every generator, by filtering the whole
    ambient space on literal dot products."""
    generators, field, ambient = _common_field_ambient(generators, ambient, field)
    generators = [g.entries for g in generators]
    out = set()
    for x in all_vectors(field, ambient, budget):
        entries = x.entries
        for g in generators:
            acc = field.zero
            for a, b in zip(entries, g):
                if a and b:
                    acc = acc + a * b
            if acc:
                break
        else:
            out.add(x)
    return out


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n."""
    _check_int(n, "n", -sys.maxsize)
    _check_int(k, "k", -sys.maxsize)
    _check_int(p, "p", 2)
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_count(n: int, p: int) -> int:
    """Total number of subspaces of GF(p)^n."""
    _check_int(n, "n", -sys.maxsize)
    _check_int(p, "p", 2)
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def enumerate_subspaces(n: int, p: int, budget: int = DEFAULT_BUDGET) -> Iterator[Subspace]:
    """Every subspace of GF(p)^n exactly once, each red basis written
    straight from its pattern, with no elimination: for each set R of red
    indices and each filling of the free cells, the row for i in R has a 1
    at i, zeros past i and at the other members of R, and a free value at
    each other position before i. Every subspace has exactly one such basis.
    """
    field = gf(p)
    _check_space(field, n)
    _check_enumeration(field, budget)
    # GF(p)^n has at least 2^(n-1) lines, so a large n is refused without a
    # count, and the Gaussian binomials are summed only until they pass budget.
    totals = itertools.accumulate(gaussian_binomial(n, k, p) for k in range(n + 1))
    if budget < 1 or n - 1 > math.log2(budget) or any(t > budget for t in totals):
        raise ResourceError(f"GF({p})^{n} has more than {budget} subspaces")
    positions = range(1, n + 1)
    for k in range(n + 1):
        for red in itertools.combinations(positions, k):
            choices = []  # every red-basic row for each red index i
            for i in red:
                free = [c for c in range(1, i) if c not in red]
                choices.append([tuple(dict(zip(free, v)).get(c, int(c == i)) for c in positions)
                                for v in itertools.product(range(p), repeat=len(free))])
            for rows in itertools.product(*choices):
                yield Subspace._made(field, n, red, rows)


def textbook_rref(a: Matrix) -> Matrix:
    """Classical Gauss-Jordan reduction: forward elimination picking the
    first row with a nonzero entry in each pivot column, then pivot scaling
    to 1 and upward back-substitution."""
    _check_type(a, Matrix)
    rows = [list(r) for r in a.rows]
    n, m = a.nrows, a.ncols
    pivots = []
    pr = 0
    for col in range(m):
        sel = None
        for r in range(pr, n):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        for r in range(pr + 1, n):
            if rows[r][col]:
                f = rows[r][col] / rows[pr][col]
                for c in range(col, m):
                    if rows[pr][c]:
                        rows[r][c] = rows[r][c] - f * rows[pr][c]
        pivots.append((pr, col))
        pr += 1
        if pr == n:
            break
    for pr, col in reversed(pivots):
        piv = rows[pr][col]
        if not piv.is_one():
            inv = piv.inverse()
            for c in range(col, m):
                if rows[pr][c]:
                    rows[pr][c] = rows[pr][c] * inv
        for r in range(pr):
            if rows[r][col]:
                f = rows[r][col]
                for c in range(col, m):
                    if rows[pr][c]:
                        rows[r][c] = rows[r][c] - f * rows[pr][c]
    return Matrix(a.field, rows)
