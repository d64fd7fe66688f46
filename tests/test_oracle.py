import math
import time
from collections import Counter

import pytest

import redlime as rl
from redlime import subspace
from redlime.errors import ResourceError, UsageError

from conftest import GF2, GF3, GF5, Q, all_subspaces, vec


def test_enumerate_span_frozen_example():
    got = rl.enumerate_span([vec(GF2, 1, 1, 0), vec(GF2, 0, 1, 1)])
    expected = {vec(GF2, *t) for t in [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]}
    assert got == expected


def test_enumerate_span_trivial_cases():
    assert rl.enumerate_span([], 3, GF2) == {rl.Vector.zero(GF2, 3)}
    gens = [rl.Vector.standard_basis(GF2, 3, k) for k in (1, 2, 3)]
    assert len(rl.enumerate_span(gens)) == 8


def test_enumerate_span_is_closed_and_sized():
    for gens in [[vec(GF3, 1, 2, 0)], [vec(GF3, 1, 0, 1), vec(GF3, 0, 1, 1)],
                 [vec(GF3, 1, 1, 1), vec(GF3, 2, 2, 2)]]:
        span = rl.enumerate_span(gens)
        dim = rl.span_red_basis(gens).dimension
        assert len(span) == 3 ** dim
        for x in span:
            for y in span:
                assert x + y in span
            for c in GF3.elements():
                assert c * x in span


def test_enumerate_span_needs_finite_field():
    with pytest.raises(UsageError):
        rl.enumerate_span([vec(Q, 1, 0)])


def test_enumerate_span_budget():
    gens = [rl.Vector.standard_basis(GF5, 6, k) for k in range(1, 7)]
    with pytest.raises(ResourceError):
        rl.enumerate_span(gens, budget=1000)


def test_brute_indices_frozen_example():
    red, lime, sig = rl.brute_indices([vec(GF2, 1, 1, 0), vec(GF2, 0, 1, 1)])
    assert red == frozenset({2, 3})
    assert lime == frozenset({1, 2})
    assert str(sig) == "lbr"


def test_brute_indices_trivial_cases():
    red, lime, sig = rl.brute_indices([], 4, GF2)
    assert red == lime == frozenset()
    assert str(sig) == "nnnn"
    red, lime, sig = rl.brute_indices(
        [vec(GF2, 1, 0), vec(GF2, 0, 1)], 2, GF2)
    assert red == lime == frozenset({1, 2})
    assert str(sig) == "bb"


def test_brute_complement_frozen_example():
    got = rl.brute_complement([vec(GF2, 1, 1, 0), vec(GF2, 0, 1, 1)])
    assert got == {rl.Vector.zero(GF2, 3), vec(GF2, 1, 1, 1)}


def test_brute_complement_trivial_cases():
    assert len(rl.brute_complement([], 3, GF2)) == 8
    gens = [rl.Vector.standard_basis(GF3, 2, k) for k in (1, 2)]
    assert rl.brute_complement(gens) == {rl.Vector.zero(GF3, 2)}


def test_all_vectors_budget():
    with pytest.raises(ResourceError):
        list(rl.all_vectors(GF5, 10, budget=1000))


def test_all_vectors_refuses_a_huge_ambient_promptly():
    start = time.monotonic()  # refused without forming 65521 ** 10 ** 6
    with pytest.raises(ResourceError):
        list(rl.all_vectors(rl.gf(65521), 10 ** 6))
    assert time.monotonic() - start < 1


def test_all_vectors_refusal_agrees_with_the_count(monkeypatch):
    # only the refusal is under test: one element per field keeps an
    # accepted GF(65521)^n from listing its 65521 scalars
    monkeypatch.setattr(rl.FieldSpec, "elements", lambda field: iter((field.zero,)))
    budgets = (-1, 0, 0.5, 1, 1.0, 2, 3, 8, 9, 10 ** 6, 1e6, 2 ** 40 - 1, 2 ** 40,
               float(2 ** 40), 3 ** 25, 1e30, 65521 ** 40, math.inf)
    for p in (2, 3, 65521):
        field = rl.gf(p)
        for n in range(1, 41):
            for budget in budgets + (p ** n - 1, p ** n, float(p ** n)):
                vectors = rl.all_vectors(field, n, budget)
                if p ** n > budget:
                    with pytest.raises(ResourceError):
                        next(vectors)
                else:
                    assert next(vectors) == rl.Vector.zero(field, n)


def test_gaussian_binomials():
    assert [rl.gaussian_binomial(5, k, 2) for k in range(6)] == [1, 31, 155, 155, 31, 1]
    assert rl.subspace_count(5, 2) == 374
    assert [rl.gaussian_binomial(4, k, 3) for k in range(5)] == [1, 40, 130, 40, 1]
    assert rl.subspace_count(4, 3) == 212
    assert rl.gaussian_binomial(4, 5, 2) == 0


def test_enumerate_subspaces_counts_and_distinctness(monkeypatch):
    for n, p in [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (3, 5)]:
        with monkeypatch.context() as m:  # the red bases are written, not eliminated
            m.setattr(subspace, "_eliminate", lambda *args: pytest.fail("enumeration eliminated"))
            subs = tuple(rl.enumerate_subspaces(n, p))
        assert len(subs) == rl.subspace_count(n, p)
        assert len(set(subs)) == len(subs)
        by_dim = Counter(w.dimension for w in subs)
        assert by_dim == {k: rl.gaussian_binomial(n, k, p) for k in range(n + 1)}
        field = rl.gf(p)
        assert rl.Subspace.zero_subspace(field, n) in subs
        assert rl.Subspace.full_space(field, n) in subs
        for w in subs:  # the public constructor and the kernel referee each one
            assert rl.Subspace(field, n, w.red_indices, w.red_basis) == w
            assert rl.span_red_basis(w.red_basis, n, field) == w


def test_enumerate_subspaces_matches_brute_indices():
    for n, p in [(3, 2), (5, 2), (4, 3)]:
        for w in all_subspaces(n, p):
            red, lime, sig = rl.brute_indices(w.red_basis, n, rl.gf(p))
            assert red == frozenset(w.red_indices)
            assert lime == frozenset(rl.lime_basis(w).lime_indices)
            assert sig == rl.signature(w)


def test_enumerate_subspaces_budget():
    with pytest.raises(ResourceError):
        list(rl.enumerate_subspaces(5, 2, budget=100))


def test_textbook_rref_examples():
    a = rl.Matrix.from_values(GF2, [[1, 1, 0], [0, 1, 1]])
    assert rl.textbook_rref(a) == rl.Matrix.from_values(GF2, [[1, 0, 1], [0, 1, 1]])
    eye = rl.Matrix.identity(Q, 3)
    assert rl.textbook_rref(eye) == eye
    zero = rl.Matrix.zero(GF3, 2, 2)
    assert rl.textbook_rref(zero) == zero


def test_textbook_rref_needs_row_swaps():
    a = rl.Matrix.from_values(Q, [[0, 0, 1], [2, 4, 0]])
    assert rl.textbook_rref(a) == rl.Matrix.from_values(Q, [[1, 2, 0], [0, 0, 1]])


def test_brute_complement_agrees_with_read_off():
    for n, p in [(3, 2), (4, 2), (2, 3), (3, 3)]:
        field = rl.gf(p)
        for w in all_subspaces(n, p):
            filtered = rl.brute_complement(w.red_basis, n, field)
            read_off = rl.complement(w)
            assert rl.enumerate_span(read_off.red_basis, n, field) == filtered
