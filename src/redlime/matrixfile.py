"""Plain-text matrix files.

First significant line is a field header, ``field q`` or ``field gf <p>``;
every later significant line is one whitespace-separated matrix row. Lines
starting with ``#`` are comments; blank lines are skipped. Scalars follow
the shared token grammar (integers everywhere, ``a/b`` over q only).
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

from .errors import DomainError, ParseError, UsageError, _check_type, _items
from .fields import RATIONALS, FieldSpec, _parse_scalar, gf
from .matrix import Matrix, _matrix
from .subspace import Vector, _vector


def field_header(field: FieldSpec) -> str:
    _check_type(field, FieldSpec)
    return "field q" if not field.is_prime_field else f"field gf {field.modulus}"


def parse_field_tokens(tokens) -> FieldSpec:
    tokens = _items(tokens, "field tokens")
    if not all(isinstance(t, str) for t in tokens):
        raise UsageError("field tokens must be an iterable of str")
    if tokens == ("q",):
        return RATIONALS
    if len(tokens) == 2 and tokens[0] == "gf":
        # ASCII digits only: str.isdigit() and int() take any Unicode digit
        if not re.fullmatch(r"[0-9]+", tokens[1]):
            raise ParseError(f"bad modulus {tokens[1]!r:.40}")
        try:
            return gf(int(tokens[1]))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"bad modulus {tokens[1]!r:.40}") from None
        except DomainError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field {' '.join(tokens)!r} (use 'q' or 'gf <p>')")


# a row of integer tokens and nothing else; [0-9] keeps int() from accepting
# "_" or non-ASCII digits, so such a line converts as _parse_scalar would
_INT_ROW_RE = re.compile(r"-?[0-9]+(?:[ \t]+-?[0-9]+)*")


def _parse_row(line: str, field: FieldSpec) -> tuple:
    """The raw row of a line of scalar tokens. A line of integer tokens
    converts in one pass; any other line, or one with a token of more digits
    than int() converts, goes token by token through ``_parse_scalar``,
    which gives every error message."""
    if _INT_ROW_RE.fullmatch(line):
        try:
            if field.modulus is None:
                return tuple([Fraction(int(t)) for t in line.split()])
            return tuple([int(t) % field.modulus for t in line.split()])
        except ValueError:
            pass
    return tuple([_parse_scalar(tok, field) for tok in line.split()])


def parse_matrix_text(text: str) -> Matrix:
    """The matrix of a file's text. The text is checked here, once: a header,
    at least one row, rows of equal width, each token a canonical raw value
    (``_parse_row``)."""
    _check_type(text, str)
    field = None
    rows = []
    # the line ends of universal newlines: splitlines() also breaks at VT, FF,
    # U+001C-U+001E, U+0085, U+2028 and U+2029, which split() reads as space
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if field is None:
            tokens = line.split()
            if tokens[0] != "field":
                raise ParseError(f"line {lineno}: expected a 'field ...' header first")
            field = parse_field_tokens(tokens[1:])
            continue
        try:
            rows.append(_parse_row(line, field))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if field is None:
        raise ParseError("missing 'field ...' header")
    if not rows:
        raise ParseError("no matrix rows")
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ParseError("rows have different lengths")
    return _matrix(field, rows)


def load_matrix(path) -> Matrix:
    if not isinstance(path, (str, bytes, os.PathLike)):  # an int would be a file descriptor
        raise UsageError(f"a path must be a str, bytes or os.PathLike, not {type(path).__name__}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            text = fh.read()
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise UsageError(f"cannot read {path}: {exc}") from None
    return parse_matrix_text(text)


def render_matrix(a: Matrix) -> str:
    _check_type(a, Matrix)
    return f"{field_header(a.field)}\n{a}\n"


def parse_vector_text(text: str, field: FieldSpec) -> Vector:
    _check_type(text, str)
    _check_type(field, FieldSpec)
    line = text.strip()
    if not line:
        raise ParseError("empty vector text")
    return _vector(field, _parse_row(line, field))
