from pathlib import Path

import pytest
from hypothesis import given

import redlime as rl
from redlime.errors import ParseError, UsageError
from redlime.matrixfile import parse_field_tokens

from conftest import GF2, Q, mat, matrices

DATA = Path(__file__).parent / "data"


def test_load_and_field_headers():
    a = rl.load_matrix(DATA / "a_gf2.txt")
    assert a.field == GF2 and (a.nrows, a.ncols) == (2, 3)
    b = rl.load_matrix(DATA / "frac_q.txt")
    assert b.field == Q
    assert str(b.entry(1, 2)) == "-2/3"


def test_comments_and_blank_lines_are_skipped():
    text = "# leading comment\n\nfield gf 3\n# body comment\n1 2\n\n0 1\n"
    a = rl.parse_matrix_text(text)
    assert a == mat(rl.gf(3), [[1, 2], [0, 1]])


@pytest.mark.parametrize("name", ["missing_header.txt", "bad_modulus.txt",
                                  "ragged.txt", "bad_token.txt", "no_rows.txt",
                                  "frac_gf2.txt"])
def test_malformed_files_raise_parse_errors(name):
    with pytest.raises(ParseError):
        rl.parse_matrix_text((DATA / name).read_text())


def test_unknown_field_header():
    with pytest.raises(ParseError):
        rl.parse_matrix_text("field r\n1 0\n")
    with pytest.raises(ParseError):
        rl.parse_matrix_text("field gf two\n1 0\n")


# Arabic-Indic and fullwidth three: str.isdigit() and int() take both
@pytest.mark.parametrize("digit", ["٣", "３"])
def test_modulus_takes_only_ascii_digits(digit):
    with pytest.raises(ParseError, match=r"^bad modulus "):
        rl.parse_matrix_text(f"field gf {digit}\n1 0\n")
    with pytest.raises(ParseError, match=r"^bad modulus ") as info:
        parse_field_tokens(["gf", digit * 100])
    assert len(str(info.value)) == len("bad modulus ") + 40


def test_a_leading_byte_order_mark_is_read_past(tmp_path):
    """Some editors begin a UTF-8 file with the encoded U+FEFF, which
    ``str.strip()`` keeps; only a leading one is dropped."""
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbffield gf 5\n1 2\n")
    assert rl.load_matrix(path) == mat(rl.gf(5), [[1, 2]])
    path.write_bytes(b"field gf 5\n\xef\xbb\xbf1 2\n")
    with pytest.raises(ParseError, match=r"^line 2: "):
        rl.load_matrix(path)


def test_missing_file_is_a_usage_error(tmp_path):
    with pytest.raises(UsageError):
        rl.load_matrix(tmp_path / "absent.txt")


@given(matrices())
def test_render_parse_round_trip(a):
    assert rl.parse_matrix_text(rl.render_matrix(a)) == a


# str.splitlines() breaks at each of these; str.split() reads them as whitespace
@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_rows_split_only_at_line_ends(tmp_path, sep):
    path = tmp_path / "m.txt"
    path.write_text(f"field gf 5\n1{sep}2\n3 x\n", encoding="utf-8", newline="")
    with pytest.raises(ParseError, match=r"^line 3: malformed scalar token 'x'$"):
        rl.load_matrix(path)
    path.write_text(f"field gf 5\r\n1{sep}2 3\r4 5 6\n", encoding="utf-8", newline="")
    assert rl.load_matrix(path) == mat(rl.gf(5), [[1, 2, 3], [4, 5, 6]])
    assert rl.parse_matrix_text(f"field gf 5\r\n1{sep}2 3\r4 5 6\n") \
        == mat(rl.gf(5), [[1, 2, 3], [4, 5, 6]])


def test_parse_vector_text():
    v = rl.parse_vector_text("1 -2/3 0", Q)
    assert v == rl.Vector.from_values(Q, [1, rl.parse_scalar("-2/3", Q).value, 0])
    assert rl.parse_vector_text(" 4\t-1\n7 ", rl.gf(5)) == mat(rl.gf(5), [[4, 4, 2]]).row(1)
    with pytest.raises(ParseError, match=r"^empty vector text$"):
        rl.parse_vector_text(" \n", GF2)
    with pytest.raises(ParseError, match=r"^malformed scalar token 'q'$"):
        rl.parse_vector_text("1 q", GF2)
