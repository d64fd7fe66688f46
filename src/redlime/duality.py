"""Orthogonal complements under the standard symmetric bilinear form.

The lime indices of the complement of W are exactly the non-red indices of
W, and its red indices the non-lime ones. One read-off (``_read_off``) gives
either basis of the complement off one of W's, with no system solving: for
each non-key position o, a 1 at o and the negated o-th entry of each basic
element at that element's key. A red-basic element is zero past its key and
a lime-basic one before it, so such an entry is nonzero only at keys on the
side of o that the result needs, and no key is compared with o.
"""

from __future__ import annotations

from .errors import _check_type
from .fields import FieldSpec, Scalar
from .subspace import LimeBasis, Subspace, Vector, _check_vector, _eliminate


def dot(x: Vector, y: Vector) -> Scalar:
    """Standard symmetric bilinear form: the sum of entrywise products."""
    _check_type(x, Vector)
    _check_vector(y, x.field, len(x._raw))
    return x.field.scalar(sum(a * b for a, b in zip(x._raw, y._raw)))


def _read_off(cls, field: FieldSpec, n: int, basis: dict):
    """The complement of the span of a raw basis dict with 0-based keys, as
    cls: a LimeBasis read off a red basis, a Subspace off a lime basis. One
    loop over the positions collects the free (non-key) indices, 1-based,
    and their basic elements."""
    p, zero, one = field.modulus, field.zero.value, field.one.value
    free, out = [], []
    for o in range(n):
        if o in basis:
            continue
        z = [zero] * n
        z[o] = one
        for i, row in basis.items():
            if row[o]:
                z[i] = -row[o] if p is None else p - row[o]
        free.append(o + 1)
        out.append(tuple(z))
    return cls._made(field, n, tuple(free), tuple(out))


def lime_of_complement_from_red(w: Subspace) -> LimeBasis:
    """Read the lime basis of the complement off w's red basis.

    For each non-red position o, the complement's lime-basic element carries
    a 1 at o, the negated o-th entry of each red-basic element at the red
    index where that element terminates, and zeros elsewhere.
    """
    _check_type(w, Subspace)
    basis = {i - 1: r for i, r in zip(w.red_indices, w._raw)}
    return _read_off(LimeBasis, w.field, w.ambient, basis)


def _complement(field, n, rows) -> Subspace:
    """The complement of the span of raw rows in F^n, read off its lime basis."""
    return _read_off(Subspace, field, n, _eliminate(rows, n, field.modulus, lime=True))


def complement(w: Subspace) -> Subspace:
    """The set of vectors orthogonal to all of w, in canonical red form.

    Computed by read-off, never by solving a linear system. Satisfies
    dim w + dim complement(w) = n and complement(complement(w)) = w.
    """
    _check_type(w, Subspace)
    return _complement(w.field, w.ambient, w._raw)
