"""Fuzzing the public API from its signatures: no call ends in a traceback.

Every callable that ``redlime`` exports, and every public method of its
exported classes, is called with one argument drawn per parameter of its
``inspect.signature``: a value of the kind the parameter takes, an int out
of range (-1, 0, sizes past ``sys.maxsize``) where an int goes, or a wrong
value (None, bools, text, floats and NaN, ints where sequences or paths go,
nested lists, vectors of another field or length). Each call must return,
or raise a ``RedlimeError``, within a deadline; a generator is run to its
end. Budgets are always small, so no enumeration runs long. Every callable
that takes two field-bearing arguments must also raise ``UsageError`` on a
pair drawn with another field or another length; ``element_from_red_entries``'s
refusals are rows of ``tests/test_boundary.py``'s ``MESSAGES`` table.
"""

import contextlib
import enum
import inspect
import math
import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redlime as rl
from redlime.errors import RedlimeError

F, G, Q = rl.gf(5), rl.gf(3), rl.RATIONALS
V = rl.Vector.from_values(F, (1, 2, 3))
W = rl.span_red_basis([V])
A = rl.Matrix.from_values(F, [[1, 0, 2], [0, 1, 1]])

# Well-formed values of each kind, by annotation, or by parameter name where
# the parameter has none.
KINDS = {
    "FieldSpec": (F, G, Q),
    "Vector": (V, rl.Vector.zero(F, 3), rl.Vector.from_values(G, (0, 1))),
    "Subspace": (W, rl.Subspace.zero_subspace(F, 3), rl.Subspace.full_space(G, 2)),
    "LimeBasis": (rl.lime_basis(W),),
    "Matrix": (A, rl.Matrix.zero(G, 2, 2), rl.Matrix.from_values(Q, [[1, 2], [2, 4]])),
    "Signature": (rl.Signature.from_string("lbr"), rl.Signature.from_string("lr")),
    "Sequence[Vector]": ([V], (V, rl.Vector.standard_basis(F, 3, 1)), []),
    "Iterable[Scalar]": ((F.one, F.zero, F.scalar(3)),),
    "Iterable[Iterable[Scalar]]": ([[F.one, F.zero], [F.zero, F.one]],),
    "Sequence[int]": ((), (1,), (1, 3)),
    "Sequence": ([1, 0, 1], ["a", None, "a"]),
    "tuple": ((2, 3, 1), (rl.Mark.LIME_ONLY, rl.Mark.RED_ONLY)),
    "int": (1, 2, 3),
    "bool": (False, True),
    "str": ("1", "-3/4", "1 0 2", "field gf 5\n1 2 0\n0 1 1\n", "lbr"),
    "path": (str(Path(__file__).parent / "data" / "a_gf2.txt"), "no such file", "a\0b"),
    "value": (2, Fraction(1, 2), F.one, "l"),
    "values": ((1, 2, 3), [[1, 0], [0, 1]]),
    "coefficients": ([1], [F.one, 2]),
    "positions": ([1], [3, 1]),
    "red": ((1,), (1, 3)),
    "lime": ((), (2,)),
    "Mark": (rl.Mark.BOTH, rl.Mark.NEITHER),
    "modulus": (2, 5, None),
}
KINDS["generators"] = KINDS["rows"] = KINDS["vectors"] = KINDS["Sequence[Vector]"]

WRONG = (None, True, False, "", "x", 1.5, math.nan, -1, 0, 10**30, -10**30, 5, [5],
         [[1]], [1, [2]], [None], (1, 2, 3), rl.Vector.from_values(G, (1, 2, 0)),
         rl.Vector.from_values(F, (1, 2)), [V, rl.Vector.from_values(G, (1, 2, 0))],
         F.scalar(1), G.scalar(1), W, A, rl.Signature.from_string("rl"))
SIZES = (-1, 0, 10**30, -10**30, 10**5000)  # out of range where an int goes
BUDGETS = (0, 1, 40, 2.5, -1, math.nan, math.inf, None, True, "x")

# Each class's public methods run on these instances, the edge sizes among
# them: one entry, 1x1, a GF(2) width past the packed row tables, empty, one mark.
INSTANCES = {
    rl.FieldSpec: KINDS["FieldSpec"],
    rl.Scalar: (F.zero, F.scalar(3), Q.scalar(Fraction(-1, 2))),
    rl.Vector: (*KINDS["Vector"], rl.Vector.from_values(F, (4,))),
    rl.Matrix: (*KINDS["Matrix"], rl.Matrix.from_values(F, [[2]]), rl.Matrix.zero(Q, 1, 1),
                rl.Matrix.from_values(rl.gf(2), [[int((i + j) % 3 == 0) for j in range(9)]
                                                 for i in range(9)])),
    rl.Subspace: KINDS["Subspace"],
    rl.LimeBasis: (*KINDS["LimeBasis"], rl.LimeBasis.empty(F, 3)),
    rl.Signature: (*KINDS["Signature"], rl.Signature.from_string("n"),
                   rl.Signature.from_string("b")),
    rl.Permutation: (rl.Permutation((2, 3, 1)), rl.Permutation((1,))),
}


def _public_calls():
    """(name, class or None, attribute) for each exported callable and each
    public method of an exported class. Exceptions are left out."""
    calls = []
    for name, obj in sorted(vars(rl).items()):
        if name.startswith("_") or not callable(obj) or inspect.ismodule(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        calls.append((name, None, obj))
        if isinstance(obj, type):
            calls += [(f"{name}.{attr}", obj, attr) for attr, member in vars(obj).items()
                      if not attr.startswith("_")
                      and isinstance(member, (classmethod, staticmethod, type(_public_calls)))]
    return calls


CALLS = {name: (owner, target) for name, owner, target in _public_calls()}


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the calling thread if the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


SKIP = object()  # leaves an optional parameter out


def _argument(param):
    """A strategy for one argument: a budget from BUDGETS; otherwise a wrong
    value, a well-formed one for the parameter's annotation or name, or,
    for an int, one out of range, each about as likely. An optional
    parameter is left out about one time in four."""
    if param.name == "budget":
        return st.sampled_from(BUDGETS)
    kind = param.annotation if isinstance(param.annotation, str) else ""
    if kind.startswith("Optional["):
        kind = kind[len("Optional["):-1]
    right = KINDS.get(kind) or KINDS.get(param.name) or ()
    pool = list(WRONG)
    if right:
        pool += right * (len(WRONG) // len(right))
    if kind == "int":
        pool += SIZES * (len(WRONG) // len(SIZES))
    if param.default is not param.empty:
        pool += [SKIP] * (len(pool) // 3)
    return st.sampled_from(pool)


def _calls(owner, target):
    """A strategy for one call of a public callable: the bound callable and
    one argument per parameter, SKIP for an optional one left out."""
    if owner is not None:
        receivers = (owner,) if isinstance(vars(owner)[target], classmethod) else INSTANCES[owner]
        targets = [getattr(receiver, target) for receiver in receivers]
    else:
        targets = [target]
    params = list(inspect.signature(targets[0]).parameters.values())
    if isinstance(targets[0], enum.EnumMeta):  # a lookup by value; the rest make new enums
        params = params[:1]
    return st.tuples(st.sampled_from(targets), st.tuples(*map(_argument, params)))


STRATEGIES = {name: _calls(owner, target) for name, (owner, target) in CALLS.items()}


def test_every_public_callable_is_fuzzed():
    assert len(CALLS) > 90
    assert {"Subspace.full_space", "Vector.zero", "Permutation.image_of",
            "gaussian_binomial", "load_matrix"} <= set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=10)
@given(st.data())
def test_public_calls_return_or_raise_a_redlime_error(name, data):
    # a batch of calls per example spreads the engine's cost per example
    for target, values in data.draw(st.lists(STRATEGIES[name], min_size=4, max_size=8)):
        params = inspect.signature(target).parameters.values()
        args = [v for p, v in zip(params, values) if p.default is p.empty]
        kwargs = {p.name: v for p, v in zip(params, values)
                  if p.default is not p.empty and v is not SKIP}
        with _deadline(1):
            try:
                result = target(*args, **kwargs)
                if inspect.isgenerator(result):
                    for _ in result:
                        pass
            except RedlimeError:
                pass


@settings(max_examples=40)
@given(st.sampled_from(KINDS["FieldSpec"] + WRONG), st.sampled_from(KINDS["value"] + WRONG))
def test_scalars_from_drawn_arguments_are_refused_or_canonical(field, value):
    """The public Scalar constructor refuses a wrong field or value, or
    holds the canonical value its field makes of the value, so the scalar
    works in arithmetic and in the vectors it builds."""
    try:
        s = rl.Scalar(field, value)
    except RedlimeError:
        return
    canonical = s.field._coerce(s.value)
    assert type(s.value) is type(canonical) and s.value == canonical
    with _deadline(1):
        for call in (lambda: s + s, lambda: s * s, lambda: -s, lambda: s / s, s.inverse,
                     lambda: rl.Vector(s.field, [s, s]), lambda: str(s)):
            try:
                call()
            except RedlimeError:
                pass


# -- mismatched pairs --------------------------------------------------------

PAIR_FIELDS = (rl.gf(2), G, F, Q)


@st.composite
def _mismatches(draw):
    """(field, n, other field, other n): the field differs, or the length."""
    field, n = draw(st.sampled_from(PAIR_FIELDS)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return field, n, draw(st.sampled_from([f for f in PAIR_FIELDS if f != field])), n
    return field, n, field, draw(st.integers(1, 5).filter(lambda m: m != n))


def _vectors(field, n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda values: rl.Vector.from_values(field, values))


def _subspaces(field, n):
    return st.lists(_vectors(field, n), max_size=3).map(
        lambda vs: rl.span_red_basis(vs, n, field))


def _matrices(field, n, m):
    row = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    return st.lists(row, min_size=n, max_size=n).map(
        lambda rows: rl.Matrix.from_values(field, rows))


# Each callable that takes two field-bearing arguments: the call on a pair
# drawn with data, one argument over (field, n), the other over (other
# field, other n); for ``@`` the inner dimensions are n and the other n.
MISMATCHED = {
    "subspace_leq": lambda d, f, n, g, m: (
        rl.subspace_leq(d(_subspaces(f, n)), d(_subspaces(g, m)))),
    "contains_vector": lambda d, f, n, g, m: (
        rl.contains_vector(d(_subspaces(f, n)), d(_vectors(g, m)))),
    "coordinates": lambda d, f, n, g, m: rl.coordinates(d(_subspaces(f, n)), d(_vectors(g, m))),
    "append_lime": lambda d, f, n, g, m: (
        rl.append_lime(rl.lime_basis(d(_subspaces(f, n))), d(_vectors(g, m)))),
    "dot": lambda d, f, n, g, m: rl.dot(d(_vectors(f, n)), d(_vectors(g, m))),
    "@": lambda d, f, n, g, m: d(_matrices(f, 2, n)) @ d(_matrices(g, m, 3)),
    "is_coordinate_system": lambda d, f, n, g, m: rl.is_coordinate_system(
        d(st.lists(_vectors(g, m), min_size=1, max_size=3)), d(_subspaces(f, n))),
    "apply_row_centric": lambda d, f, n, g, m: (
        rl.apply_row_centric(d(_matrices(f, 2, n)), d(_vectors(g, m)))),
    "apply_column_centric": lambda d, f, n, g, m: (
        rl.apply_column_centric(d(_matrices(f, 2, n)), d(_vectors(g, m)))),
}


@pytest.mark.parametrize("name", sorted(MISMATCHED))
@settings(max_examples=20)
@given(_mismatches(), st.data())
def test_mismatched_pairs_raise_usage_error(name, mismatch, data):
    """Raw values coincide across fields, so a pair of another field or
    length must be refused, not computed with."""
    with pytest.raises(rl.UsageError):
        MISMATCHED[name](data.draw, *mismatch)
