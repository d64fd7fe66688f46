"""Orthogonal complements under the standard symmetric bilinear form.

The lime indices of the complement of W are exactly the non-red indices of
W, and its lime basis can be read directly off W's red basis (and the red
basis of the complement off W's lime basis) with no system solving: each
basis element of the complement is supported on one non-red position plus
the red positions, so it overlaps every red-basic element in at most two
positions.
"""

from __future__ import annotations

from .errors import _check_type
from .fields import FieldSpec, Scalar
from .subspace import LimeBasis, Subspace, Vector, _check_vector, _mirrored


def dot(x: Vector, y: Vector) -> Scalar:
    """Standard symmetric bilinear form: the sum of entrywise products."""
    _check_type(x, Vector)
    _check_vector(y, x.field, len(x._raw))
    return x.field.scalar(sum(a * b for a, b in zip(x._raw, y._raw)))


def _read_off(field: FieldSpec, n: int, basis: dict) -> list:
    """lime_of_complement_from_red on a raw red-basis dict with 0-based keys:
    one pair (position, raw entries) per non-key position, ascending."""
    p, zero, one = field.modulus, field.zero.value, field.one.value
    out = []
    for o in range(n):
        if o in basis:
            continue
        z = [zero] * n
        z[o] = one
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
    _check_type(w, Subspace)
    field, n = w.field, w.ambient
    out = _read_off(field, n, {i - 1: r for i, r in zip(w.red_indices, w._raw)})
    return LimeBasis._made(field, n, tuple(o + 1 for o, _ in out),
                           tuple([tuple(z) for _, z in out]))


def _complement(field, n, rows) -> Subspace:
    """Red basis of the complement of the span of raw rows in F^n, read off
    its lime basis: reversal keeps the dot product, so this is the lime
    read-off of the reversed span, reversed back."""
    out = _read_off(field, n, _mirrored(rows, field.modulus))[::-1]
    return Subspace._made(field, n, tuple(n - o for o, _ in out),
                          tuple([tuple(z[::-1]) for _, z in out]))


def complement(w: Subspace) -> Subspace:
    """The set of vectors orthogonal to all of w, in canonical red form.

    Computed by read-off, never by solving a linear system. Satisfies
    dim w + dim complement(w) = n and complement(complement(w)) = w.
    """
    _check_type(w, Subspace)
    return _complement(w.field, w.ambient, w._raw)
