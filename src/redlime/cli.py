"""Command-line front end.

Subspace commands read the file's rows as generators; matrix commands read
them as the matrix itself. Exit codes: 0 success, 1 usage error, 2 parse
error, 3 domain error (infeasible signature, zero-matrix factorization,
non-member vector, failed verification) or resource error (enumeration
budget exceeded, a value with more digits than the interpreter renders).
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys

from .duality import complement
from .errors import DomainError, ParseError, ResourceError, UsageError
from .fields import FieldSpec, _random_scalar, _text, gf
from .matrix import (Matrix, apply_column_centric, apply_row_centric,
                     column_space, dependent_columns, full_rank_factorization,
                     nullity, nullspace, pivot_columns, rank, rcef,
                     rcef_factorization, rref, rref_factorization, row_space)
from .matrixfile import (field_header, load_matrix, parse_field_tokens,
                         parse_vector_text, render_matrix)
from .oracle import (DEFAULT_BUDGET, brute_complement, brute_indices,
                     enumerate_span, enumerate_subspaces, textbook_rref)
from .signatures import Mark, Signature, is_feasible, signature, synthesize
from .subspace import (Subspace, Vector, contains_vector, coordinates,
                       is_coordinate_system, lime_basis, span_red_basis)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Each command renders its whole output before printing any of it, so a
# value too large to render leaves no partial output behind.

def _print_basis(field, label, indices, vectors):
    lines = [field_header(field), f"# {label}: {' '.join(str(i) for i in indices)}".rstrip()]
    lines.extend(" ".join(_text(field, e) for e in v._raw) for v in vectors)
    print("\n".join(lines))


def _print_matrix(a: Matrix):
    print(render_matrix(a), end="")


def _field_from_flag(tokens) -> FieldSpec:
    try:
        return parse_field_tokens(tokens)
    except ParseError as exc:
        raise UsageError(f"bad --field value: {exc}") from None


def _cmd_red_basis(args) -> int:
    w = row_space(load_matrix(args.file))
    _print_basis(w.field, "red indices", w.red_indices, w.red_basis)
    return 0


def _cmd_lime_basis(args) -> int:
    lb = lime_basis(row_space(load_matrix(args.file)))
    _print_basis(lb.field, "lime indices", lb.lime_indices, lb.vectors)
    return 0


def _cmd_rref(args) -> int:
    _print_matrix(rref(load_matrix(args.file)))
    return 0


def _cmd_rcef(args) -> int:
    _print_matrix(rcef(load_matrix(args.file)))
    return 0


def _cmd_rank(args) -> int:
    print(rank(load_matrix(args.file)))
    return 0


def _cmd_nullspace(args) -> int:
    w = nullspace(load_matrix(args.file))
    _print_basis(w.field, "red indices", w.red_indices, w.red_basis)
    return 0


def _cmd_complement(args) -> int:
    w = complement(row_space(load_matrix(args.file)))
    _print_basis(w.field, "red indices", w.red_indices, w.red_basis)
    return 0


def _cmd_member(args) -> int:
    a = load_matrix(args.file)
    w = row_space(a)
    x = parse_vector_text(args.vector, a.field)
    if contains_vector(w, x):
        coords = coordinates(w, x)
        print(("yes\n" + " ".join(str(c) for c in coords)) if coords else "yes")
        return 0
    print("no")
    return 3


def _cmd_signature(args) -> int:
    print(signature(row_space(load_matrix(args.file))))
    return 0


def _cmd_feasible(args) -> int:
    if is_feasible(Signature.from_string(args.sig)):
        print("yes")
        return 0
    print("no")
    return 3


def _cmd_synthesize(args) -> int:
    sig = Signature.from_string(args.sig)
    w = synthesize(sig, _field_from_flag(args.field))
    _print_basis(w.field, "red indices", w.red_indices, w.red_basis)
    return 0


def _cmd_factor(args) -> int:
    a = load_matrix(args.file)
    if args.kind == "full":
        if args.complete:
            raise UsageError("--complete applies to --kind rref/rcef only")
        f = full_rank_factorization(a)
        parts = [f.b, f.g]
    elif args.kind == "rref":
        parts = list(rref_factorization(a, complete=args.complete))
    else:
        parts = list(rcef_factorization(a, complete=args.complete))
    print("\n".join(render_matrix(part) for part in parts), end="")
    return 0


def _cmd_atlas(args) -> int:
    if args.n < 1:
        raise UsageError("ambient dimension must be at least 1")
    try:  # the modulus is an argument, as with --field
        gf(args.p)
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    counts: dict = {}
    for w in enumerate_subspaces(args.n, args.p, budget=args.budget):
        key = str(signature(w))
        counts[key] = counts.get(key, 0) + 1
    for key in sorted(counts):
        print(f"{key} {counts[key]}")
    feasible = set()
    for marks in itertools.product(tuple(Mark), repeat=args.n):
        sig = Signature(marks)
        if is_feasible(sig):
            feasible.add(str(sig))
    ok = set(counts) == feasible
    print(f"characterization: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 3


def _shuffled_row_span(a: Matrix, rng) -> Matrix:
    """Apply a few random row-space-preserving operations."""
    rows = list(a.row_vectors())
    n = a.nrows
    for _ in range(8):
        op = rng.randrange(3)
        i = rng.randrange(n)
        if op == 0 and n > 1:
            j = rng.randrange(n)
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            c = _random_scalar(a.field, rng, 9)
            if c:
                rows[i] = c * rows[i]
        elif n > 1:
            j = rng.randrange(n)
            if j != i:
                c = _random_scalar(a.field, rng, 9)
                rows[i] = rows[i] + c * rows[j]
    return Matrix.from_rows(rows)


def _dependent_columns_by_prefix(a: Matrix) -> frozenset:
    """Second route for column dependence: grow the span column by column."""
    out = set()
    running = Subspace.zero_subspace(a.field, a.nrows)
    for j in range(1, a.ncols + 1):
        col = a.column(j)
        if contains_vector(running, col):
            out.add(j)
        else:
            running = span_red_basis(list(running.red_basis) + [col],
                                     a.nrows, a.field)
    return frozenset(out)


def _cmd_verify(args) -> int:
    a = load_matrix(args.file)
    rng = random.Random(args.seed)
    print(f"seed: {args.seed}")
    results = []

    def check(name, ok, note=""):
        results.append(ok)
        print(f"{name}: {'ok' if ok else 'FAIL'}{note}")

    check("rref matches classical reduction", rref(a) == textbook_rref(a))
    r = rank(a)
    check("rank equals rank of transpose", r == rank(a.transpose()))
    check("rank plus nullity covers the columns", r + nullity(a) == a.ncols)

    agree = True
    for _ in range(5):
        x = Vector(a.field, tuple(_random_scalar(a.field, rng, 9) for _ in range(a.ncols)))
        if apply_row_centric(a, x) != apply_column_centric(a, x):
            agree = False
    check("row- and column-centric application agree", agree)

    stable = all(rref(_shuffled_row_span(a, rng)) == rref(a) for _ in range(20))
    check("rref stable under row operations", stable)

    piv_cols = [a.column(j) for j in pivot_columns(a)]
    check("pivot columns form a column-space basis",
          is_coordinate_system(piv_cols, column_space(a)))
    check("dependent columns agree with prefix membership",
          dependent_columns(a) == _dependent_columns_by_prefix(a))

    if a.is_zero():
        print("factorizations: skipped (zero matrix)")
    else:
        f = full_rank_factorization(a)
        check("full-rank factors multiply back",
              f.b @ f.g == a and rank(f.b) == f.rank == rank(f.g))
        t, e = rref_factorization(a, complete=True)
        check("rref factorization multiplies back",
              t @ e == a and rank(t) == a.nrows)
        c, s = rcef_factorization(a, complete=True)
        check("rcef factorization multiplies back",
              c @ s == a and rank(s) == a.ncols)

    if not a.field.is_prime_field:
        print("span enumeration: skipped (infinite field)")
    elif r and a.field.modulus ** r > args.budget:  # the span alone is over budget
        print("span enumeration: skipped (budget)")
    else:
        try:
            rows = a.row_vectors()
            red, lime, sig = brute_indices(rows, a.ncols, a.field, budget=args.budget)
            w = row_space(a)
            check("red/lime indices match span enumeration",
                  red == frozenset(w.red_indices)
                  and lime == frozenset(lime_basis(w).lime_indices)
                  and sig == signature(w))
            comp = complement(w)
            check("complement matches orthogonality filter",
                  enumerate_span(comp.red_basis, a.ncols, a.field, budget=args.budget)
                  == brute_complement(rows, a.ncols, a.field, budget=args.budget))
        except ResourceError:
            print("span enumeration: skipped (budget)")

    ok = all(results)
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="redlime", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    add("red-basis", _cmd_red_basis, "canonical red basis of the row span").add_argument("file")
    add("lime-basis", _cmd_lime_basis, "canonical lime basis of the row span").add_argument("file")
    add("rref", _cmd_rref, "reduced row echelon form").add_argument("file")
    add("rcef", _cmd_rcef, "reduced column echelon form").add_argument("file")
    add("rank", _cmd_rank, "rank of the matrix").add_argument("file")
    add("nullspace", _cmd_nullspace, "red basis of the nullspace").add_argument("file")
    add("complement", _cmd_complement, "red basis of the row span's complement").add_argument("file")

    p = add("member", _cmd_member, "test membership in the row span")
    p.add_argument("file")
    p.add_argument("--vector", required=True, help="row of scalars, e.g. \"1 0 1\"")

    add("signature", _cmd_signature, "r/l/b/n signature of the row span").add_argument("file")
    add("feasible", _cmd_feasible, "is a signature realizable?").add_argument("sig")

    p = add("synthesize", _cmd_synthesize, "witness subspace for a feasible signature")
    p.add_argument("sig")
    p.add_argument("--field", nargs="+", default=["gf", "2"],
                   help="'q' or 'gf <p>' (default: gf 2)")

    p = add("factor", _cmd_factor, "full-rank / rref / rcef factorization")
    p.add_argument("file")
    p.add_argument("--kind", choices=["full", "rref", "rcef"], required=True)
    p.add_argument("--complete", action="store_true",
                   help="complete the padded factor to an invertible matrix")

    p = add("atlas", _cmd_atlas, "realized signatures of GF(p)^n, with counts")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("verify", _cmd_verify, "cross-check the file against the brute-force oracle")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
