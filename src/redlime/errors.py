"""Exception hierarchy shared by every redlime module, and its argument checks.

The CLI maps these onto exit codes: UsageError -> 1, ParseError -> 2,
DomainError and ResourceError -> 3.
"""


class RedlimeError(Exception):
    """Base class for all redlime errors."""


class UsageError(RedlimeError):
    """Caller broke an interface contract (mixed fields, bad lengths, bad flags)."""


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


def _check_position(i, n: int, what: str = "position"):
    """UsageError unless i is an int (not a bool) in 1..n."""
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= n:
        raise UsageError(f"{what} {i!r} outside 1..{n}")
