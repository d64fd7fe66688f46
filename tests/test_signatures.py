import itertools

import pytest
from hypothesis import given

import redlime as rl
from redlime.errors import DomainError, ParseError, UsageError
from redlime.signatures import Mark

from conftest import GF2, GF3, Q, all_subspaces, span_of, subspaces, vec

# coefficient patterns of three 18-position subspaces sharing one signature;
# positions with equal labels share a free coefficient, 0 pins a zero
W18 = (0, 1, 2, 3, 4, 0, 1, 5, 6, 0, 4, 6, 7, 7, 8, 9, 8, 10)
Z18 = (0, 1, 2, 3, 4, 4, 1, 5, 6, 6, 4, 6, 7, 7, 8, 9, 8, 10)
X18 = (0, 1, 2, 3, 4, 1, 1, 5, 6, 4, 4, 6, 7, 7, 8, 9, 8, 10)
SIG18 = "nlbblnrblnrrlrlbrb"


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


def test_signature_of_the_18_position_patterns():
    for field in (GF2, Q):
        for pattern in (W18, Z18, X18):
            w = rl.subspace_from_pattern(pattern, field)
            assert str(rl.signature(w)) == SIG18


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

    with pytest.raises(UsageError):
        rl.truncate_right(rl.Subspace.full_space(Q, 1))


def _check_truncation_effect(w):
    sig = rl.signature(w).marks
    tsig = rl.signature(rl.truncate_right(w)).marks
    if sig[-1] in (Mark.BOTH, Mark.NEITHER):
        assert tsig == sig[:-1]
    else:
        assert sig[-1] is Mark.RED_ONLY
        diffs = [(old, new) for old, new in zip(sig[:-1], tsig) if old is not new]
        assert diffs in ([(Mark.NEITHER, Mark.RED_ONLY)], [(Mark.LIME_ONLY, Mark.BOTH)])


def test_truncation_effect_exhaustive_small():
    for n in (2, 3, 4):
        for w in all_subspaces(n, 2):
            _check_truncation_effect(w)
    for w in all_subspaces(3, 3):
        _check_truncation_effect(w)


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


def test_synthesize_round_trip_small():
    for n in range(1, 7):
        for marks in itertools.product(tuple(Mark), repeat=n):
            sig = rl.Signature(marks)
            if rl.is_feasible(sig):
                for field in (GF2, GF3):
                    assert rl.signature(rl.synthesize(sig, field)) == sig


def test_realized_signatures_match_feasibility_small():
    for n, p in [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)]:
        realized = {str(rl.signature(w)) for w in all_subspaces(n, p)}
        feasible = {"".join(m.value for m in marks)
                    for marks in itertools.product(tuple(Mark), repeat=n)
                    if rl.is_feasible(rl.Signature(marks))}
        assert realized == feasible


def test_sub_terminal_structure_small():
    for n, p in [(3, 2), (4, 2), (3, 3)]:
        field = rl.gf(p)
        for w in all_subspaces(n, p):
            span = rl.enumerate_span(w.red_basis, n, field)
            red = set(w.red_indices)
            basic = dict(zip(w.red_indices, w.red_basis))
            by_terminal = {}
            for v in span:
                t = rl.terminating_index(v)
                if t is not None:
                    by_terminal.setdefault(t, set()).add(rl.sub_terminal_index(v))
            for i, realized in by_terminal.items():
                j = rl.sub_terminal_index(basic[i])
                assert realized == {j} | {r for r in red if j < r < i}
                assert len([s for s in realized if s not in red]) <= 1


def test_subspace_from_pattern_dimension():
    w = rl.subspace_from_pattern(W18, GF2)
    assert w.dimension == 10
    assert rl.subspace_from_pattern((0, 0, 0), Q) == rl.Subspace.zero_subspace(Q, 3)
    nan = float("nan")  # a label unequal to itself still gets its positions
    w = rl.subspace_from_pattern([nan, 0], GF2)
    assert w.dimension == 1 and w.red_indices == (1,)
    assert rl.subspace_from_pattern([nan, 1, nan], GF2).red_indices == (2, 3)


def test_permutation_type():
    perm = rl.Permutation((3, 1, 2))
    assert perm.image_of(1) == 3
    assert perm.apply(vec(GF2, 1, 1, 0)) == vec(GF2, 1, 0, 1)
    with pytest.raises(UsageError):
        perm.apply((1, 1, 0))
    with pytest.raises(UsageError):
        rl.Permutation((1, 1, 2))


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
