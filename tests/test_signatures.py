import pytest
from hypothesis import given

import redlime as rl
from redlime.errors import DomainError, ParseError
from redlime.signatures import Mark

from conftest import GF2, GF3, Q, SIG18, W18, X18, Z18, span_of, subspaces, vec


def test_sub_terminal_index():
    assert rl.sub_terminal_index(vec(GF2, 1, 1, 0)) == 1
    assert rl.sub_terminal_index(vec(GF2, 0, 1, 1)) == 2
    assert rl.sub_terminal_index(rl.Vector.standard_basis(Q, 4, 3)) == 0
    assert rl.sub_terminal_index(rl.Vector.zero(Q, 4)) == 0


def test_signature_strings_round_trip():
    sig = rl.Signature.from_string("nlbr")
    assert str(sig) == "nlbr"
    assert len(sig) == 4
    with pytest.raises(ParseError):
        rl.Signature.from_string("nlxr")
    with pytest.raises(ParseError):
        rl.Signature.from_string("")


def test_signature_small_examples():
    assert str(rl.signature(rl.Subspace.zero_subspace(GF3, 4))) == "nnnn"
    assert str(rl.signature(span_of(GF2, 3, (1, 1, 0), (0, 1, 1)))) == "lbr"
    assert str(rl.signature(rl.Subspace.full_space(Q, 3))) == "bbb"


@given(subspaces())
def test_signature_counting_and_exclusions(w):
    sig = rl.signature(w)
    assert sig.count(Mark.BOTH) + sig.count(Mark.RED_ONLY) == w.dimension
    assert sig.count(Mark.BOTH) + sig.count(Mark.LIME_ONLY) == w.dimension
    assert sig.marks[0] is not Mark.RED_ONLY
    assert sig.marks[-1] is not Mark.LIME_ONLY


def test_truncate_right_examples():
    w = span_of(GF2, 2, (1, 1))
    assert str(rl.signature(w)) == "lr"
    u = rl.truncate_right(w)
    assert u == rl.Subspace.full_space(GF2, 1)
    assert str(rl.signature(u)) == "b"

    w = span_of(GF2, 2, (1, 0))
    assert str(rl.signature(w)) == "bn"
    assert str(rl.signature(rl.truncate_right(w))) == "b"

    assert rl.truncate_right(rl.Subspace.full_space(Q, 4)) == rl.Subspace.full_space(Q, 3)


def test_is_feasible_examples():
    assert rl.is_feasible(rl.Signature.from_string("lbr"))
    assert not rl.is_feasible(rl.Signature.from_string("rl"))
    for n in (1, 3, 7):
        assert rl.is_feasible(rl.Signature.from_string("n" * n))
    assert rl.is_feasible(rl.Signature.from_string(SIG18))
    assert not rl.is_feasible(rl.Signature.from_string("lrl"))
    assert not rl.is_feasible(rl.Signature.from_string("llrr"[::-1]))
    assert rl.is_feasible(rl.Signature.from_string("llrr"))


def test_synthesize_examples():
    w = rl.synthesize(rl.Signature.from_string("lbr"), GF2)
    assert w == span_of(GF2, 3, (1, 0, 1), (0, 1, 0))
    assert rl.synthesize(rl.Signature.from_string("b"), Q) == rl.Subspace.full_space(Q, 1)
    with pytest.raises(DomainError):
        rl.synthesize(rl.Signature.from_string("rn"), GF2)


def test_subspace_from_pattern_dimension():
    w = rl.subspace_from_pattern(W18, GF2)
    assert w.dimension == 10
    assert rl.subspace_from_pattern((0, 0, 0), Q) == rl.Subspace.zero_subspace(Q, 3)
    nan = float("nan")  # a label unequal to itself still gets its positions
    w = rl.subspace_from_pattern([nan, 0], GF2)
    assert w.dimension == 1 and w.red_indices == (1,)
    assert rl.subspace_from_pattern([nan, 1, nan], GF2).red_indices == (2, 3)
    # two nan objects are two labels: nan equals nothing, itself included
    assert rl.subspace_from_pattern([float("nan"), float("nan")], GF2).dimension == 2


def test_permutation_type():
    perm = rl.Permutation((3, 1, 2))
    assert perm.image_of(1) == 3
    assert perm.apply(vec(GF2, 1, 1, 0)) == vec(GF2, 1, 0, 1)


def test_permute_presenting_positions_frozen_example():
    w = span_of(GF2, 3, (1, 1, 0))
    perm, moved = rl.permute_presenting_positions(w, [1])
    assert perm.images == (3, 1, 2)
    assert moved == span_of(GF2, 3, (1, 0, 1))
    assert moved.red_indices == (3,)


def test_permute_presenting_positions_identity_cases():
    w = span_of(GF2, 3, (1, 1, 0), (0, 1, 1))
    perm, moved = rl.permute_presenting_positions(w, [2, 3])
    assert perm.is_identity()
    assert moved == w

    full = rl.Subspace.full_space(GF3, 3)
    perm, moved = rl.permute_presenting_positions(full, [1, 2, 3])
    assert perm.is_identity()
    assert moved == full
    assert moved.red_indices == (1, 2, 3)


def test_permute_presenting_positions_rejects_partial_presentation():
    w = span_of(GF2, 3, (1, 1, 0))
    with pytest.raises(DomainError):
        rl.permute_presenting_positions(w, [1, 2])


@given(subspaces(max_n=5))
def test_red_positions_always_present(w):
    # restricted to its red positions, any subspace presents as the full
    # space, so those positions can always be moved to the tail
    perm, moved = rl.permute_presenting_positions(w, w.red_indices)
    n, k = w.ambient, w.dimension
    tail = tuple(range(n - k + 1, n + 1))
    assert moved.red_indices == tail
    assert moved.dimension == k


def test_non_uniqueness_three_witnesses_differ():
    ws = [rl.subspace_from_pattern(p, GF2) for p in (W18, Z18, X18)]
    assert len({w for w in ws}) == 3
    assert len({str(rl.signature(w)) for w in ws}) == 1
