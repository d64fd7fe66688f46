import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import redlime as rl
from redlime.errors import DomainError

from conftest import (GF2, GF3, GF5, Q, all_subspaces, field_and_vectors,
                      random_member, random_vector, span_of, subspaces, vec)


def test_terminating_index():
    assert rl.terminating_index(vec(GF3, 0, 1, 0, 2)) == 4
    assert rl.terminating_index(vec(GF3, 0, 0, 0)) is None
    for k in range(1, 5):
        assert rl.terminating_index(rl.Vector.standard_basis(Q, 4, k)) == k


def test_originating_index():
    assert rl.originating_index(vec(GF3, 0, 1, 0, 2)) == 2
    assert rl.originating_index(vec(GF3, 0, 0, 0)) is None
    for k in range(1, 5):
        assert rl.originating_index(rl.Vector.standard_basis(Q, 4, k)) == k


# span of {(1,1,0),(0,1,1)} over GF(2) is {000, 110, 011, 101}; terminal
# positions give red {2,3}, and exhausting the four members for the
# canonical shape gives W_2=(1,1,0), W_3=(1,0,1).
def test_span_red_basis_frozen_example():
    w = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    assert w.red_indices == (2, 3)
    assert w.red_basis == (vec(GF2, 1, 1, 0), vec(GF2, 1, 0, 1))


def test_span_of_nothing_is_zero_subspace():
    w = rl.span_red_basis([], 3, GF2)
    assert w == rl.Subspace.zero_subspace(GF2, 3)
    assert w.dimension == 0


def test_span_of_standard_basis_is_full_space():
    gens = [rl.Vector.standard_basis(GF3, 4, k) for k in range(1, 5)]
    assert rl.span_red_basis(gens) == rl.Subspace.full_space(GF3, 4)


def test_zero_generators_are_skipped():
    w = rl.span_red_basis([rl.Vector.zero(GF2, 3), vec(GF2, 1, 1, 0)])
    assert w == span_of(GF2, 3, (1, 1, 0))


# originating positions of {110, 011, 101} are {1, 2}; canonical lime
# elements solved by exhaustion: L_1=(1,0,1), L_2=(0,1,1).
def test_lime_basis_frozen_example():
    lb = rl.lime_basis(span_of(GF2, 3, (1, 1, 0), (0, 1, 1)))
    assert lb.lime_indices == (1, 2)
    assert lb.vectors == (vec(GF2, 1, 0, 1), vec(GF2, 0, 1, 1))


def test_lime_basis_trivial_cases():
    assert rl.lime_basis(rl.Subspace.zero_subspace(Q, 3)).lime_indices == ()
    lb = rl.lime_basis(rl.Subspace.full_space(GF2, 3))
    assert lb.vectors == tuple(rl.Vector.standard_basis(GF2, 3, k) for k in (1, 2, 3))


def test_append_lime_frozen_example():
    base = rl.LimeBasis(GF2, 3, (1,), (vec(GF2, 1, 0, 1),))
    grown = rl.append_lime(base, vec(GF2, 1, 1, 0))
    assert grown.lime_indices == (1, 2)
    assert grown.vectors == (vec(GF2, 1, 0, 1), vec(GF2, 0, 1, 1))
    joint = rl.lime_basis(span_of(GF2, 3, (1, 0, 1), (1, 1, 0)))
    assert grown == joint


def test_append_lime_member_is_noop():
    base = rl.lime_basis(span_of(GF2, 3, (1, 1, 0), (0, 1, 1)))
    assert rl.append_lime(base, vec(GF2, 1, 0, 1)) is base


def test_append_lime_scales_first_vector():
    grown = rl.append_lime(rl.LimeBasis.empty(GF3, 3), vec(GF3, 0, 2, 0))
    assert grown.lime_indices == (2,)
    assert grown.vectors == (vec(GF3, 0, 1, 0),)


def test_append_lime_when_leading_position_is_already_lime():
    # y originates at a lime position, so the new lime index only appears
    # after reducing y against the existing basis
    base = rl.lime_basis(span_of(GF2, 3, (1, 0, 0)))
    grown = rl.append_lime(base, vec(GF2, 1, 1, 0))
    assert grown.lime_indices == (1, 2)
    assert grown.vectors == (vec(GF2, 1, 0, 0), vec(GF2, 0, 1, 0))


def test_contains_vector_frozen_examples():
    w = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    assert rl.contains_vector(w, vec(GF2, 1, 0, 1))
    assert not rl.contains_vector(w, vec(GF2, 0, 0, 1))
    assert rl.contains_vector(w, rl.Vector.zero(GF2, 3))
    assert vec(GF2, 1, 0, 1) in w and vec(GF2, 0, 0, 1) not in w


def test_coordinates_read_off_red_positions():
    w = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    assert rl.coordinates(w, vec(GF2, 1, 0, 1)) == (GF2.zero, GF2.one)
    for j, bv in enumerate(w.red_basis):
        unit = rl.coordinates(w, bv)
        assert [c.is_one() for c in unit] == [i == j for i in range(w.dimension)]
    assert rl.coordinates(w, rl.Vector.zero(GF2, 3)) == (GF2.zero, GF2.zero)


def test_coordinates_reject_non_members():
    w = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    with pytest.raises(DomainError):
        rl.coordinates(w, vec(GF2, 0, 0, 1))


def test_element_from_red_entries_frozen_examples():
    w = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    assert rl.element_from_red_entries(w, (1, 1)) == vec(GF2, 0, 1, 1)
    assert rl.element_from_red_entries(w, (0, 0)) == rl.Vector.zero(GF2, 3)
    assert rl.element_from_red_entries(w, (1, 0)) == w.red_basis[0]


def test_dimension():
    assert rl.Subspace.zero_subspace(GF5, 4).dimension == 0
    assert rl.Subspace.full_space(GF5, 4).dimension == 4
    assert span_of(GF2, 3, (1, 1, 0), (0, 1, 1)).dimension == 2


def test_subspace_order_and_equality():
    small = span_of(GF2, 3, (1, 1, 0))
    big = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    assert rl.subspace_leq(small, big) and not rl.subspace_leq(big, small)
    assert small <= big
    assert big <= rl.Subspace.full_space(GF2, 3)
    assert big == span_of(GF2, 3, (1, 0, 1), (0, 1, 1))


@given(field_and_vectors(min_vectors=0, max_vectors=4))
def test_list_is_coordinate_system_of_its_span_iff_independent(fnv):
    field, n, vs = fnv
    span = rl.span_red_basis(vs, n, field)
    assert rl.is_coordinate_system(vs, span) == (span.dimension == len(vs))


def test_is_coordinate_system_examples():
    w = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    assert rl.is_coordinate_system([vec(GF2, 1, 1, 0), vec(GF2, 0, 1, 1)], w)
    assert not rl.is_coordinate_system([vec(GF2, 1, 1, 0), vec(GF2, 1, 1, 0)], w)
    assert not rl.is_coordinate_system(
        [rl.Vector.zero(GF2, 3), vec(GF2, 1, 1, 0)], w)
    assert rl.is_coordinate_system([], rl.Subspace.zero_subspace(GF2, 3))


# --- structural invariants ---------------------------------------------------

def assert_canonical_red(w):
    assert list(w.red_indices) == sorted(set(w.red_indices))
    for j, (i, bv) in enumerate(zip(w.red_indices, w.red_basis)):
        assert bv.entry(i).is_one()
        assert all(not bv.entry(p) for p in range(i + 1, w.ambient + 1))
        assert all(not bv.entry(l) for l in w.red_indices if l != i)


@given(field_and_vectors(min_vectors=0))
def test_span_output_is_canonical(fnv):
    field, n, vs = fnv
    w = rl.span_red_basis(vs, n, field)
    assert_canonical_red(w)
    for v in vs:
        assert rl.contains_vector(w, v)


@given(field_and_vectors())
def test_lime_output_is_canonical(fnv):
    field, n, vs = fnv
    w = rl.span_red_basis(vs, n, field)
    lb = rl.lime_basis(w)
    assert rl.span_red_basis(lb.vectors, n, field) == w
    assert list(lb.lime_indices) == sorted(set(lb.lime_indices))
    for i, bv in zip(lb.lime_indices, lb.vectors):
        assert bv.entry(i).is_one()
        assert all(not bv.entry(p) for p in range(1, i))
        assert all(not bv.entry(l) for l in lb.lime_indices if l != i)


def test_nonzero_combinations_touch_a_red_position():
    # exhaustive over GF(2), plus spot checks over GF(3)
    for n, p in [(4, 2), (3, 3)]:
        field = rl.gf(p)
        for w in all_subspaces(n, p):
            if w.dimension == 0:
                continue
            for coeffs in itertools.product(range(p), repeat=w.dimension):
                if not any(coeffs):
                    continue
                x = rl.element_from_red_entries(w, coeffs)
                assert any(x.entry(i) for i in w.red_indices)


def test_members_agreeing_on_red_positions_are_equal():
    for w in all_subspaces(3, 2):
        members = rl.enumerate_span(w.red_basis, 3, GF2)
        for x in members:
            for y in members:
                if all(x.entry(i) == y.entry(i) for i in w.red_indices):
                    assert x == y


@given(field_and_vectors(min_vectors=1, max_vectors=3), st.data())
def test_span_is_canonical_under_generator_rewrites(fnv, data):
    field, n, vs = fnv
    w = rl.span_red_basis(vs, n, field)
    perm = data.draw(st.permutations(vs))
    assert rl.span_red_basis(perm, n, field) == w
    c = field.scalar(data.draw(st.sampled_from([2, -1, 3])))
    if c:
        scaled = [c * v for v in vs]
        assert rl.span_red_basis(scaled, n, field) == w
    if len(vs) >= 2:
        added = list(vs)
        added[0] = added[0] + added[1]
        assert rl.span_red_basis(added, n, field) == w


def test_red_entry_round_trips_exhaustive():
    for n, p in [(3, 2), (2, 3)]:
        field = rl.gf(p)
        for w in all_subspaces(n, p):
            for x in rl.enumerate_span(w.red_basis, n, field):
                assert rl.element_from_red_entries(w, rl.coordinates(w, x)) == x
            for coeffs in itertools.product(range(p), repeat=w.dimension):
                x = rl.element_from_red_entries(w, coeffs)
                assert rl.coordinates(w, x) == tuple(field.scalar(c) for c in coeffs)


@given(subspaces(max_n=5), st.data())
def test_append_lime_growth(w, data):
    base = rl.lime_basis(w)
    y = data.draw(st.lists(st.integers(-3, 3), min_size=w.ambient, max_size=w.ambient)
                  .map(lambda es: rl.Vector.from_values(w.field, es)))
    grown = rl.append_lime(base, y)
    joint = rl.span_red_basis(list(w.red_basis) + [y], w.ambient, w.field)
    assert grown == rl.lime_basis(joint)
    expected = w.dimension if rl.contains_vector(w, y) else w.dimension + 1
    assert grown.dimension == expected
    grown_span = rl.span_red_basis(grown.vectors, w.ambient, w.field)
    assert rl.contains_vector(grown_span, y)
    assert all(rl.contains_vector(grown_span, b) for b in w.red_basis)


def _classical_rank(vectors, n, field):
    # nonzero rows of the classical reduction; no canonical-basis machinery
    if not vectors:
        return 0
    reduced = rl.textbook_rref(rl.Matrix.from_rows(vectors))
    return sum(1 for row in reduced.rows if any(row))


@given(field_and_vectors(min_vectors=1, max_vectors=4), st.data())
def test_membership_agrees_with_classical_rank(fnv, data):
    # x is in the span exactly when appending it does not raise the rank of
    # the generator matrix under the classical reducer
    field, n, vs = fnv
    x = data.draw(st.one_of(
        st.sampled_from(vs),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        .map(lambda es: rl.Vector.from_values(field, es))))
    w = rl.span_red_basis(vs, n, field)
    without = _classical_rank(vs, n, field)
    with_x = _classical_rank(list(vs) + [x], n, field)
    assert rl.contains_vector(w, x) == (without == with_x)
    assert w.dimension == without


def test_coordinate_system_iff_unique_representation():
    # brute-force equivalence: tally every coefficient combination of the list
    for n in range(1, 5):
        field = GF2
        for w in all_subspaces(n, 2):
            members = rl.enumerate_span(w.red_basis, n, field)
            pool = sorted(members, key=str)
            for length in range(0, 4):
                if len(pool) ** length > 600:
                    break
                for candidate in itertools.product(pool, repeat=length):
                    tally = {}
                    for coeffs in itertools.product((0, 1), repeat=length):
                        acc = rl.Vector.zero(field, n)
                        for c, v in zip(coeffs, candidate):
                            if c:
                                acc = acc + v
                        tally[acc] = tally.get(acc, 0) + 1
                    unique = all(tally.get(x, 0) == 1 for x in members)
                    assert rl.is_coordinate_system(list(candidate), w) == unique


def test_every_member_terminates_at_a_red_index(rng):
    for field, n in [(GF2, 5), (GF5, 4), (Q, 4)]:
        for _ in range(50):
            gens = [random_vector(field, n, rng) for _ in range(rng.randrange(4))]
            w = rl.span_red_basis(gens, n, field)
            x = random_member(w, rng)
            t = rl.terminating_index(x)
            assert t is None or t in w.red_indices
