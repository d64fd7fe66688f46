"""Acceptance gate: one test per criterion, each printing a pass/fail line.
No unit test repeats a criterion's check, and every golden CLI output is in
criterion 10's table.

Everything is exact arithmetic, so every comparison is plain equality; the
only tolerances are the runtime ceilings, asserted where stated. Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import functools
import itertools
import time
from pathlib import Path

import redlime as rl
from redlime.cli import _dependent_columns_by_prefix, _shuffled_row_span, run as cli_run
from redlime.signatures import Mark

from conftest import (GF2, GF3, GF5, Q, SIG18, W18, X18, Z18, all_subspaces,
                      random_matrix, random_member, random_vector)

DATA = Path(__file__).parent / "data"

GF2_SHAPES = [(n, m) for n in range(1, 4) for m in range(1, 5)]


def criterion(number, limit_seconds=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number}: pass ({elapsed:.2f}s)")
            if limit_seconds is not None:
                assert elapsed < limit_seconds, (
                    f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s")
        return wrapper
    return decorate


def _matrices(rng, count, max_cols):
    """Every GF(2) matrix of GF2_SHAPES, then count seeded matrices over each
    of GF(3), GF(5) and Q, of 1 to 4 rows and 1 to max_cols columns."""
    for n, m in GF2_SHAPES:
        for flat in itertools.product((0, 1), repeat=n * m):
            yield rl.Matrix.from_values(GF2, [flat[i * m:(i + 1) * m] for i in range(n)])
    for field in (GF3, GF5, Q):
        for _ in range(count):
            yield random_matrix(field, rng.randint(1, 4), rng.randint(1, max_cols), rng)


@criterion(1, limit_seconds=1.0)
def test_criterion_1_headline_example():
    expected = rl.Signature.from_string(SIG18)
    for field in (GF2, Q):
        for pattern in (W18, Z18, X18):
            w = rl.subspace_from_pattern(pattern, field)
            assert rl.signature(w) == expected


SWAP = {Mark.BOTH: Mark.NEITHER, Mark.NEITHER: Mark.BOTH}


@criterion(2, limit_seconds=30.0)
def test_criterion_2_duality_exhaustive():
    assert (len(all_subspaces(5, 2)), len(all_subspaces(4, 3))) == (374, 212)
    for n, p in [*((n, 2) for n in range(1, 6)), *((n, 3) for n in range(1, 5))]:
        everything = set(range(1, n + 1))
        for w in all_subspaces(n, p):
            c = rl.complement(w)
            lime = rl.lime_basis(w).lime_indices
            assert len(lime) == len(w.red_indices)
            assert set(rl.lime_basis(c).lime_indices) == everything - set(w.red_indices)
            assert set(c.red_indices) == everything - set(lime)
            assert w.dimension + c.dimension == n
            assert rl.complement(c) == w
            # the complement's signature swaps b and n, keeping r and l
            assert rl.signature(c).marks == tuple(
                SWAP.get(m, m) for m in rl.signature(w).marks)


@criterion(3, limit_seconds=120.0)
def test_criterion_3_all_possible_configurations():
    for n, p in [*((n, 2) for n in range(1, 6)), *((n, 3) for n in range(1, 4))]:
        realized = {str(rl.signature(w)) for w in all_subspaces(n, p)}
        feasible = {"".join(m.value for m in marks)
                    for marks in itertools.product(tuple(Mark), repeat=n)
                    if rl.is_feasible(rl.Signature(marks))}
        assert realized == feasible
    for n in range(1, 9):
        for marks in itertools.product(tuple(Mark), repeat=n):
            sig = rl.Signature(marks)
            if rl.is_feasible(sig):
                for field in (GF2, GF3) if n <= 6 else (GF2,):
                    assert rl.signature(rl.synthesize(sig, field)) == sig


@criterion(4, limit_seconds=30.0)
def test_criterion_4_truncation_effect():
    for n, p in [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3)]:
        for w in all_subspaces(n, p):
            sig = rl.signature(w).marks
            tsig = rl.signature(rl.truncate_right(w)).marks
            if sig[-1] in (Mark.BOTH, Mark.NEITHER):
                assert tsig == sig[:-1]
            else:
                assert sig[-1] is Mark.RED_ONLY
                diffs = [(old, new) for old, new in zip(sig[:-1], tsig)
                         if old is not new]
                assert diffs in ([(Mark.NEITHER, Mark.RED_ONLY)],
                                 [(Mark.LIME_ONLY, Mark.BOTH)])


@criterion(5)
def test_criterion_5_rref_uniqueness_and_oracle_equivalence(rng):
    for a in _matrices(rng, 1000, 5):
        r = rl.rref(a)
        assert r == rl.textbook_rref(a)
        assert rl.rref(r) == r
        assert rl.row_space(r) == rl.row_space(a)
    for field in (GF2, GF3, GF5, Q):
        for _ in range(20):
            a = random_matrix(field, rng.randint(1, 4), rng.randint(1, 4), rng)
            r = rl.rref(a)
            for _ in range(20):  # eight row operations a shuffle, chained
                a = _shuffled_row_span(a, rng)
                assert rl.rref(a) == r


@criterion(6)
def test_criterion_6_rank_theory(rng):
    for a in _matrices(rng, 1000, 5):
        assert rl.rank(a) == rl.rank(a.transpose()) == rl.column_space(a).dimension
        assert rl.rank(a) + rl.nullity(a) == a.ncols
        assert rl.dependent_columns(a) == _dependent_columns_by_prefix(a)


def _check_factorizations(a):
    assert rl.rcef(a) == rl.rref(a.transpose()).transpose()
    if a.is_zero():
        return
    f = rl.full_rank_factorization(a)
    assert f.b @ f.g == a
    assert rl.rank(f.b) == f.rank == rl.rank(f.g) == rl.rank(a)
    for complete in (False, True):
        t, r = rl.rref_factorization(a, complete=complete)
        assert t @ r == a
        assert r == rl.rref(a)
        c, s = rl.rcef_factorization(a, complete=complete)
        assert c @ s == a
        assert c == rl.rcef(a)
        if complete:
            assert rl.rank(t) == t.nrows == t.ncols
            assert rl.rank(s) == s.nrows == s.ncols


@criterion(7)
def test_criterion_7_factorizations(rng):
    for a in _matrices(rng, 500, 4):
        _check_factorizations(a)


def _random_subspace(field, n, rng, max_generators=4):
    gens = [random_vector(field, n, rng)
            for _ in range(rng.randrange(max_generators + 1))]
    return rl.span_red_basis(gens, n, field)


@criterion(8)
def test_criterion_8_dimension_theory(rng):
    for field in (GF2, GF3, GF5, Q):
        positives = 0
        for _ in range(1000):
            n = rng.randint(1, 5)
            w = _random_subspace(field, n, rng)
            # complement dimension and involution, and as many lime as red indices
            c = rl.complement(w)
            assert w.dimension + c.dimension == n
            assert rl.complement(c) == w
            assert rl.lime_basis(w).dimension == w.dimension
            # basis-cardinality invariance
            length = max(0, min(w.dimension + rng.randint(-1, 1), n))
            candidate = [random_member(w, rng) for _ in range(length)]
            if rl.is_coordinate_system(candidate, w):
                assert len(candidate) == w.dimension
                positives += 1
            # monotonicity with the equality case
            v = _random_subspace(field, n, rng)
            w2 = rl.span_red_basis(
                [random_member(v, rng) for _ in range(rng.randrange(4))], n, field)
            assert rl.subspace_leq(w2, v)
            assert w2.dimension <= v.dimension
            if w2.dimension == v.dimension:
                assert w2 == v
            # step-up bound
            xs = [random_vector(field, n, rng) for _ in range(rng.randrange(4))]
            y = random_vector(field, n, rng)
            with_y = rl.span_red_basis(xs + [y], n, field)
            assert with_y.dimension <= rl.span_red_basis(xs, n, field).dimension + 1
        assert positives > 0

    for n in (3, 4):
        subs = all_subspaces(n, 2)
        for w in subs:
            for v in subs:
                if rl.subspace_leq(w, v):
                    assert w.dimension <= v.dimension
                    if w.dimension == v.dimension:
                        assert w == v
        ambient = list(rl.all_vectors(GF2, n))
        for w in subs:
            for y in ambient:
                grown = rl.span_red_basis(list(w.red_basis) + [y], n, GF2)
                assert grown.dimension <= w.dimension + 1
        for w in subs:
            pool = sorted(rl.enumerate_span(w.red_basis, n, GF2), key=str)
            for length in range(0, 4):
                if len(pool) ** length > 600:
                    break
                for candidate in itertools.product(pool, repeat=length):
                    if rl.is_coordinate_system(list(candidate), w):
                        assert length == w.dimension


@criterion(9, limit_seconds=30.0)
def test_criterion_9_sub_terminal_structure():
    for n, p in [(3, 2), (4, 2), (3, 3)]:
        field = rl.gf(p)
        for w in all_subspaces(n, p):
            red = set(w.red_indices)
            basic = dict(zip(w.red_indices, w.red_basis))
            realized = {}
            for v in rl.enumerate_span(w.red_basis, n, field):
                t = rl.terminating_index(v)
                if t is not None:
                    realized.setdefault(t, set()).add(rl.sub_terminal_index(v))
            assert set(realized) == red
            for i, subs in realized.items():
                j = rl.sub_terminal_index(basic[i])
                assert subs == {j} | {r for r in red if j < r < i}
                assert len([s for s in subs if s not in red]) <= 1


A, B, ZERO = (str(DATA / name) for name in ("a_gf2.txt", "b_gf2.txt", "zero_gf2.txt"))
USAGE, PARSE, DOMAIN = "usage error: ", "parse error: ", "error: "

# Every golden run of the CLI: (argv, exit code, stdout, stderr prefix); an
# empty prefix means nothing on stderr.
CLI_TABLE = [
    (("red-basis", A), 0, "field gf 2\n# red indices: 2 3\n1 1 0\n1 0 1\n", ""),
    (("lime-basis", A), 0, "field gf 2\n# lime indices: 1 2\n1 0 1\n0 1 1\n", ""),
    (("rref", A), 0, "field gf 2\n1 0 1\n0 1 1\n", ""),
    (("rcef", B), 0, "field gf 2\n1 0 0\n1 0 0\n0 1 0\n", ""),
    (("rank", A), 0, "2\n", ""),
    (("rank", ZERO), 0, "0\n", ""),
    (("nullspace", A), 0, "field gf 2\n# red indices: 3\n1 1 1\n", ""),
    (("complement", A), 0, "field gf 2\n# red indices: 3\n1 1 1\n", ""),
    (("nullspace", ZERO), 0, "field gf 2\n# red indices: 1 2 3\n1 0 0\n0 1 0\n0 0 1\n", ""),
    (("member", A, "--vector", "1 0 1"), 0, "yes\n0 1\n", ""),
    (("member", A, "--vector", "0 0 1"), 3, "no\n", ""),
    (("member", A, "--vector", "1 0"), 1, "", USAGE),
    *((("signature", str(DATA / f"{w}18_{f}.txt")), 0, SIG18 + "\n", "")
      for w in "wzx" for f in ("gf2", "q")),
    (("feasible", "lbr"), 0, "yes\n", ""),
    (("feasible", "rl"), 3, "no\n", ""),
    (("feasible", "xyz"), 2, "", PARSE),
    (("synthesize", "lbr"), 0, "field gf 2\n# red indices: 2 3\n0 1 0\n1 0 1\n", ""),
    (("synthesize", "lbr", "--field", "q"), 0, "field q\n# red indices: 2 3\n0 1 0\n1 0 1\n", ""),
    (("synthesize", "lbr", "--field", "gf", "4"), 1, "", USAGE),
    (("synthesize", "rn"), 3, "", DOMAIN),
    (("factor", B, "--kind", "full"), 0,
     "field gf 2\n1 0\n1 0\n0 1\n\nfield gf 2\n1 1 0\n0 1 1\n", ""),
    (("factor", B, "--kind", "rcef", "--complete"), 0,
     "field gf 2\n1 0 0\n1 0 0\n0 1 0\n\nfield gf 2\n1 1 0\n0 1 1\n0 0 1\n", ""),
    (("factor", B, "--kind", "full", "--complete"), 1, "", USAGE),
    (("factor", ZERO, "--kind", "full"), 3, "", DOMAIN),
    (("factor", ZERO, "--kind", "rref"), 3, "", DOMAIN),
    (("atlas", "2", "2"), 0, "bb 1\nbn 1\nlr 1\nnb 1\nnn 1\ncharacterization: OK\n", ""),
    (("rank",), 1, "", USAGE),
    (("member", A), 1, "", USAGE),
    (("rank", str(DATA / "missing_header.txt")), 2, "", PARSE),
    (("rank", str(DATA / "bad_token.txt")), 2, "", PARSE),
]


@criterion(10, limit_seconds=10.0)
def test_criterion_10_cli_contract(capsys):
    def cli(*argv):
        code = cli_run(list(argv))
        return (code, *capsys.readouterr())

    for argv, want_code, want_out, want_err in CLI_TABLE:
        code, out, err = cli(*argv)
        assert (code, out) == (want_code, want_out), argv
        assert err.startswith(want_err) and bool(err) == bool(want_err), (argv, err)

    # a synthesized witness re-parses to a subspace of the signature asked for
    _, out, _ = cli("synthesize", SIG18)
    assert str(rl.signature(rl.row_space(rl.parse_matrix_text(out)))) == SIG18
