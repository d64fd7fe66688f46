"""Per-position classification of subspaces and its calculus.

Every position of a subspace gets one of four marks: ``b`` (both red and
lime), ``r`` (red only), ``l`` (lime only), ``n`` (neither). A mark string
is *feasible* — realized by some subspace — exactly when its l's and r's
pair up like matched parentheses: equal counts, and strictly more r's than
l's to the right of every l. Feasible signatures are realized by
coefficient-pattern subspaces in which each l/r pair shares one free
coefficient, each b carries its own, and n-positions are pinned to zero.
"""

from __future__ import annotations

import enum
import itertools
from typing import Sequence

from .errors import DomainError, ParseError, UsageError, _check_int, _check_type, _items
from .fields import FieldSpec
from .subspace import Subspace, Vector, _eliminate, _last_nonzero, _span, _vector


class _MarkType(enum.EnumMeta):
    def __call__(cls, value, *more, **named):  # Mark(letter) only: no functional API
        if more or named or value not in [m.value for m in cls]:  # no hash or repr of value
            raise UsageError("a mark is one of the letters r, l, b and n")
        return super().__call__(value)


class Mark(enum.Enum, metaclass=_MarkType):
    """Status of one position: red side = terminating, lime side = originating."""

    RED_ONLY = "r"
    LIME_ONLY = "l"
    BOTH = "b"
    NEITHER = "n"


class Signature:
    """An ordered mark per position; arbitrary strings are representable,
    feasibility is a separate predicate."""

    __slots__ = ("marks",)

    def __init__(self, marks: tuple):
        if (not isinstance(marks, tuple) or not marks
                or any(not isinstance(m, Mark) for m in marks)):
            raise UsageError("a signature is a nonempty tuple of marks")
        self.marks = marks

    @classmethod
    def from_string(cls, text: str) -> "Signature":
        _check_type(text, str)
        try:
            marks = tuple(Mark(ch) for ch in text)
        except UsageError:
            raise ParseError(f"signature may only contain r/l/b/n: {text!r}") from None
        if not marks:
            raise ParseError("empty signature string")
        sig = object.__new__(cls)  # package-made marks, unchecked
        sig.marks = marks
        return sig

    def count(self, mark: Mark) -> int:
        return sum(1 for m in self.marks if m is mark)

    def __len__(self):
        return len(self.marks)

    def __eq__(self, other):
        if not isinstance(other, Signature):
            return NotImplemented
        return self.marks == other.marks

    def __hash__(self):
        return hash((self.marks,))

    def __str__(self):
        return "".join(m.value for m in self.marks)

    def __repr__(self):
        return f"Signature({str(self)!r})"


_MARKS = (Mark.NEITHER, Mark.LIME_ONLY, Mark.RED_ONLY, Mark.BOTH)  # by 2·red + lime


def _signature(red: set, lime: set, n: int) -> Signature:
    """The Signature of package-made sets of positions in 1..n, unchecked."""
    sig = object.__new__(Signature)
    sig.marks = tuple([_MARKS[2 * (p in red) + (p in lime)] for p in range(1, n + 1)])
    return sig


def signature_from_indices(red, lime, n: int) -> Signature:
    """Assemble the mark string from red and lime sets of positions in 1..n."""
    _check_int(n, "n")
    red, lime = _items(red, "red indices"), _items(lime, "lime indices")
    for p in red + lime:
        _check_int(p, "a red or lime index", 1, n)
    return _signature(set(red), set(lime), n)


def signature(w: Subspace) -> Signature:
    """The subspace's mark string; b- and r-counts sum to the dimension, as
    do b- and l-counts. The lime indices are read off an echelon pass
    (``_eliminate`` on the lime side, with keys_only)."""
    _check_type(w, Subspace)
    lime = _eliminate(w._raw, w.ambient, w.field.modulus, lime=True, keys_only=True)
    return _signature(set(w._indices), {o + 1 for o in lime}, w.ambient)


def sub_terminal_index(v: Vector) -> int:
    """Position of the second-to-last nonzero entry, or 0 when the vector
    has fewer than two nonzero entries."""
    _check_type(v, Vector)
    t = _last_nonzero(v._raw)
    if t is None:
        return 0
    s = _last_nonzero(v._raw, below=t)
    return 0 if s is None else s + 1


def truncate_right(w: Subspace) -> Subspace:
    """Drop the last coordinate of every member, yielding a subspace of
    F^(n-1). At most one position changes status, and only by gaining red."""
    _check_type(w, Subspace)
    if w.ambient <= 1:
        raise UsageError("cannot truncate an ambient of 1")
    return _span(w.field, w.ambient - 1, [r[:-1] for r in w._raw])


def is_feasible(sig: Signature) -> bool:
    """True iff l's and r's balance like matched parentheses: equal counts
    overall, and strictly more r's than l's to the right of every l."""
    _check_type(sig, Signature)
    rho = lam = 0
    for mark in reversed(sig.marks):
        if mark is Mark.RED_ONLY:
            rho += 1
        elif mark is Mark.LIME_ONLY:
            if rho <= lam:
                return False
            lam += 1
    return rho == lam


def subspace_from_pattern(pattern: Sequence, field: FieldSpec) -> Subspace:
    """Span of one indicator generator per distinct pattern label.

    ``pattern`` assigns each position a label; equal labels share one free
    coefficient and a label of 0/None pins the position to zero. Labels
    group as dict keys do: by equality, and a label unequal to itself (nan)
    by identity, so one nan object shares a coefficient and two do not.
    The generators are the 0/1 indicator vectors of the label supports.
    """
    _check_type(field, FieldSpec)
    pattern = _items(pattern, "a pattern")
    if not pattern:
        raise UsageError("empty pattern")
    zero, one = field.zero.value, field.one.value
    # each label's positions, grouped by dict lookup, so that a label
    # unequal to itself (nan) still gets its own
    supports: dict = {}
    try:
        for i, label in enumerate(pattern):
            if label is not None and label != 0:
                supports.setdefault(label, set()).add(i)
    except TypeError:
        raise UsageError("pattern labels must be hashable") from None
    return _span(field, len(pattern), [[one if i in support else zero for i in range(len(pattern))]
                                       for support in supports.values()])


def synthesize(sig: Signature, field: FieldSpec) -> Subspace:
    """A witness subspace with the requested signature.

    l- and r-positions are paired nearest-first with a stack (l opens, r
    closes) and each pair shares a fresh coefficient; every b-position gets
    its own. Pair supports are disjoint, so the span's terminating indices
    are exactly the b's and r's and its originating indices the b's and l's.
    """
    if not is_feasible(sig):
        raise DomainError(f"infeasible signature {sig}")
    labels = itertools.count(1)
    pattern: list = [None] * len(sig.marks)
    stack: list = []
    for pos, mark in enumerate(sig.marks):
        if mark is Mark.BOTH:
            pattern[pos] = next(labels)
        elif mark is Mark.LIME_ONLY:
            stack.append(pos)
        elif mark is Mark.RED_ONLY:
            opener = stack.pop()
            label = next(labels)
            pattern[opener] = label
            pattern[pos] = label
    return subspace_from_pattern(pattern, field)


class Permutation:
    """A bijection on positions 1..n; images[i-1] is where position i goes."""

    __slots__ = ("images",)

    def __init__(self, images: tuple):
        images = _items(images, "images")
        if not images:
            raise UsageError("a permutation needs at least one image")
        for i in images:
            _check_int(i, "an image", 1, len(images))
        if len(set(images)) != len(images):
            raise UsageError("images must be a bijection on 1..n")
        self.images = images

    def image_of(self, i: int) -> int:
        _check_int(i, "position", 1, len(self.images))
        return self.images[i - 1]

    def apply(self, v: Vector) -> Vector:
        """Relocate entries: the image vector carries v's entry i at image_of(i)."""
        _check_type(v, Vector)
        if len(v._raw) != len(self.images):
            raise UsageError("vector length does not match the permutation size")
        out = [v.field.zero.value] * len(self.images)
        for i, e in enumerate(v._raw):
            out[self.images[i] - 1] = e
        return _vector(v.field, tuple(out))

    def is_identity(self) -> bool:
        return all(im == i for i, im in enumerate(self.images, start=1))

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash((self.images,))

    def __repr__(self):
        return f"Permutation(images={self.images!r})"


def permute_presenting_positions(w: Subspace, positions) -> tuple:
    """Relocate k presenting positions to the tail of the coordinate list.

    Requires the restriction of w onto the given positions to be all of F^k.
    Returns the order-preserving permutation that sends those positions to
    the last k slots together with the image subspace, for which each of the
    last k positions is red; when k equals dim w they are all of its red
    positions.
    """
    _check_type(w, Subspace)
    positions = _items(positions, "positions")
    n = w.ambient
    for p in positions:
        _check_int(p, "position", 1, n)
    positions = sorted(set(positions))
    k = len(positions)
    if k and len(_eliminate([[r[p - 1] for p in positions] for r in w._raw], k,
                            w.field.modulus, keys_only=True)) != k:
        raise DomainError("the subspace does not present as the full space there")
    chosen = set(positions)
    order = [q for q in range(1, n + 1) if q not in chosen] + positions
    slot = {q: s for s, q in enumerate(order, start=1)}
    perm = object.__new__(Permutation)  # package-made images, unchecked
    perm.images = tuple([slot[q] for q in range(1, n + 1)])
    return perm, _span(w.field, n, [[r[q - 1] for q in order] for r in w._raw]) if k else w
