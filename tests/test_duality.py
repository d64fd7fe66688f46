from fractions import Fraction

from hypothesis import given

import redlime as rl

from conftest import GF2, GF3, Q, span_of, subspaces, vec


def test_dot_examples():
    assert rl.dot(vec(GF2, 1, 1, 0), vec(GF2, 1, 1, 1)) == GF2.zero
    x = vec(Q, 1, 2)
    assert rl.dot(x, x) == Q.scalar(5)
    for i in range(1, 4):
        for j in range(1, 4):
            d = rl.dot(rl.Vector.standard_basis(Q, 3, i),
                       rl.Vector.standard_basis(Q, 3, j))
            assert d == (Q.one if i == j else Q.zero)


# the complement of span{(1,1,0),(0,1,1)} over GF(2) is {000, 111} by
# filtering all 8 vectors on both dot products
def test_read_off_lime_of_complement():
    w = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    lb = rl.lime_of_complement_from_red(w)
    assert lb.lime_indices == (1,)
    assert lb.vectors == (vec(GF2, 1, 1, 1),)

    assert rl.lime_of_complement_from_red(rl.Subspace.full_space(GF2, 3)).dimension == 0

    lb = rl.lime_of_complement_from_red(rl.Subspace.zero_subspace(GF3, 3))
    assert lb.vectors == tuple(rl.Vector.standard_basis(GF3, 3, k) for k in (1, 2, 3))


def test_read_off_red_of_complement():
    w = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    c = rl.complement(w)
    assert c.red_indices == (3,)
    assert c.red_basis == (vec(GF2, 1, 1, 1),)

    assert rl.complement(
        rl.Subspace.zero_subspace(GF2, 4)) == rl.Subspace.full_space(GF2, 4)

    c = rl.complement(span_of(GF2, 3, (0, 1, 0)))
    assert c.red_basis == (vec(GF2, 1, 0, 0), vec(GF2, 0, 0, 1))


def test_complement_examples():
    assert rl.complement(rl.Subspace.zero_subspace(Q, 4)) == rl.Subspace.full_space(Q, 4)
    assert rl.complement(span_of(GF2, 3, (1, 1, 0), (0, 1, 1))) == span_of(GF2, 3, (1, 1, 1))
    c = rl.complement(span_of(Q, 2, (1, 2)))
    assert c.red_basis == (vec(Q, -2, 1),)


@given(subspaces())
def test_read_off_is_orthogonal_with_small_overlap(w):
    lb = rl.lime_of_complement_from_red(w)
    for z in lb.vectors:
        for bv in w.red_basis:
            assert rl.dot(z, bv) == w.field.zero
            overlap = sum(1 for a, b in zip(z.entries, bv.entries) if a and b)
            assert overlap <= 2


@given(subspaces())
def test_both_read_offs_describe_the_same_complement(w):
    via_lime = rl.lime_of_complement_from_red(w)
    c = rl.complement(w)
    assert rl.span_red_basis(via_lime.vectors, w.ambient, w.field) == c
    assert rl.lime_basis(c) == via_lime


def test_complement_over_rationals_with_fractions():
    w = span_of(Q, 3, (Fraction(1, 2), 1, 0), (0, Fraction(2, 3), 1))
    c = rl.complement(w)
    for z in c.red_basis:
        for bv in w.red_basis:
            assert rl.dot(z, bv) == Q.zero
    assert w.dimension + c.dimension == 3
    assert rl.complement(c) == w
