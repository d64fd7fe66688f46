"""Exception hierarchy shared by every redlime module, and its argument checks.

The CLI maps these onto exit codes: UsageError -> 1, ParseError -> 2,
DomainError, ResourceError and MemoryError -> 3.
"""

import sys


class RedlimeError(Exception):
    """Base class for all redlime errors."""


class UsageError(RedlimeError):
    """Caller broke an interface contract (wrong type, field or length, bad flags)."""


class ParseError(RedlimeError):
    """Malformed text input: scalar token, matrix file, or signature string."""


class DomainError(RedlimeError):
    """Input is well-formed but outside the operation's mathematical domain."""


class ResourceError(RedlimeError):
    """An enumeration would exceed its configured budget, or a result is too
    large to render as text."""


def _check_type(x, cls):
    """UsageError unless x is an instance of cls."""
    if not isinstance(x, cls):
        raise UsageError(f"expected a {cls.__name__}, got {type(x).__name__}")


def _items(x, what: str) -> tuple:
    """The items of a caller's iterable as a tuple; UsageError for anything
    else. Every public collection argument comes in through here."""
    try:
        it = iter(x)
    except TypeError:
        raise UsageError(f"{what} must be an iterable, not {type(x).__name__}") from None
    return x if type(x) is tuple else tuple(it)


def _check_int(x, what: str, lo=1, hi=sys.maxsize):
    """UsageError unless x is an int, not a bool, in lo..hi (by default a size)."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise UsageError(f"{what} must be an int, not {type(x).__name__}")
    if not lo <= x <= hi:  # the digits of a huge x may be past what str() converts
        shown = x if x.bit_length() < 64 else f"of {x.bit_length()} bits"
        raise UsageError(f"{what} {shown} outside {lo}..{hi}")


def _check_field(got, want):
    """UsageError unless got is the field want."""
    if got != want:
        raise UsageError(f"mixed fields: {got} where {want} is needed")
