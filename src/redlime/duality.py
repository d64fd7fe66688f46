"""Orthogonal complements under the standard symmetric bilinear form.

The lime indices of the complement of W are exactly the non-red indices of
W, and its lime basis can be read directly off W's red basis (and the red
basis of the complement off W's lime basis) with no system solving: each
basis element of the complement is supported on one non-red position plus
the red positions, so it overlaps every red-basic element in at most two
positions.
"""

from __future__ import annotations

from .errors import UsageError
from .fields import Scalar
from .subspace import LimeBasis, Subspace, Vector, _mirrored_red


def dot(x: Vector, y: Vector) -> Scalar:
    """Standard symmetric bilinear form: the sum of entrywise products."""
    if x.field != y.field:
        raise UsageError(f"mixed fields: {x.field} vs {y.field}")
    if len(x.entries) != len(y.entries):
        raise UsageError("mismatched vector lengths")
    acc = x.field.zero
    for a, b in zip(x.entries, y.entries):
        if a and b:
            acc = acc + a * b
    return acc


def _read_off(field, n: int, basis: dict) -> list:
    """lime_of_complement_from_red on a red-basis dict with 0-based keys:
    one pair (position, entries) per non-key position, ascending."""
    zero = field.zero
    out = []
    for o in range(n):
        if o in basis:
            continue
        z = [zero] * n
        z[o] = field.one
        for i, row in basis.items():
            if i > o:
                a = row[o]
                if a:
                    z[i] = -a
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
    out = _read_off(field, n, {i - 1: v.entries for i, v in zip(w.red_indices, w.red_basis)})
    return LimeBasis(field, n, tuple(o + 1 for o, _ in out),
                     tuple(Vector(field, z) for _, z in out))


def red_of_complement_from_lime(w: Subspace) -> Subspace:
    """Read the red basis of the complement off w's lime basis (the mirror
    construction: reversal keeps the dot product, so this is the lime
    read-off of the reversed span, reversed back)."""
    field, n = w.field, w.ambient
    out = _read_off(field, n, _mirrored_red(w))[::-1]
    return Subspace(field, n, tuple(n - o for o, _ in out),
                    tuple(Vector(field, z[::-1]) for _, z in out))


def complement(w: Subspace) -> Subspace:
    """The set of vectors orthogonal to all of w, in canonical red form.

    Computed by read-off, never by solving a linear system. Satisfies
    dim w + dim complement(w) = n and complement(complement(w)) = w.
    """
    return red_of_complement_from_lime(w)
