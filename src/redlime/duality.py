"""Orthogonal complements under the standard symmetric bilinear form.

The lime indices of the complement of W are exactly the non-red indices of
W, and its lime basis can be read directly off W's red basis (and the red
basis of the complement off W's lime basis) with no system solving: each
basis element of the complement is supported on one non-red position plus
the red positions, so it overlaps every red-basic element in at most two
positions.
"""

from __future__ import annotations

from .fields import Scalar
from .subspace import (LimeBasis, Subspace, Vector, _check_type, _check_vector,
                       _mirrored, _red, _unchecked, _vector)


def dot(x: Vector, y: Vector) -> Scalar:
    """Standard symmetric bilinear form: the sum of entrywise products."""
    _check_type(x, Vector)
    _check_vector(y, x.field, len(x.entries))
    return x.field.scalar(sum(a.value * b.value for a, b in zip(x.entries, y.entries)))


def _read_off(n: int, basis: dict, p) -> list:
    """lime_of_complement_from_red on a raw red-basis dict with 0-based keys
    (p the modulus, None over Q): one pair (position, raw entries) per
    non-key position, ascending."""
    out = []
    for o in range(n):
        if o in basis:
            continue
        z = [0] * n
        z[o] = 1
        for i, row in basis.items():
            if i > o and row[o]:
                z[i] = -row[o] if p is None else p - row[o]
        out.append((o, z))
    return out


def lime_of_complement_from_red(w: Subspace) -> LimeBasis:
    """Read the lime basis of the complement off w's red basis.

    For each non-red position o, the complement's lime-basic element carries
    a 1 at o, the negated o-th entry of each red-basic element at the red
    index where that element terminates (for red indices past o), and zeros
    elsewhere.
    """
    field, n = w.field, w.ambient
    out = _read_off(n, _red([v.entries for v in w.red_basis], field.modulus), field.modulus)
    return _unchecked(LimeBasis, field, n, tuple(o + 1 for o, _ in out),
                      tuple(_vector(field, z) for _, z in out))


def _complement(field, n, rows) -> Subspace:
    """Red basis of the complement of the span of rows of Scalars in F^n,
    read off its lime basis: reversal keeps the dot product, so this is the
    lime read-off of the reversed span, reversed back."""
    out = _read_off(n, _mirrored(rows, field.modulus), field.modulus)[::-1]
    return _unchecked(Subspace, field, n, tuple(n - o for o, _ in out),
                      tuple(_vector(field, z[::-1]) for _, z in out))


def complement(w: Subspace) -> Subspace:
    """The set of vectors orthogonal to all of w, in canonical red form.

    Computed by read-off, never by solving a linear system. Satisfies
    dim w + dim complement(w) = n and complement(complement(w)) = w.
    """
    return _complement(w.field, w.ambient, [v.entries for v in w.red_basis])
