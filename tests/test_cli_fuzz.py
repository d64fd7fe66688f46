"""Fuzzing the command line in process: no input ends in a traceback.

Random bytes and half-valid matrix files meet every subcommand with valid
and invalid flags. Whatever the input, ``cli.run`` must return one of the
documented exit codes (0 success, 1 usage, 2 parse, 3 domain or resource)
and let no exception escape.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from redlime.cli import run

EXIT_CODES = {0, 1, 2, 3}

HEADERS = ("field q", "field gf 2", "field gf 5", "field gf 4", "field gf", "field",
           "field gf x", "# comment", "")
TOKENS = ("0", "1", "-1", "2", "3", "1/2", "-3/4", "1/0", "2/-3", "٣", "x", "1" * 50,
          "-" + "9" * 50, "4/" + "7" * 50, "")
FILE_COMMANDS = ("red-basis", "lime-basis", "rref", "rcef", "rank", "nullspace",
                 "complement", "member", "signature", "factor", "verify")
STRAY_FLAGS = ("--kind", "--complete", "--vector=1", "--vector=", "--field", "--budget", "-2",
               "--seed", "--help", "--bogus", "q")

small_ints = st.integers(-2, 4).map(str)
vector_tokens = st.sampled_from(TOKENS[:5]) | st.sampled_from(TOKENS)  # mostly valid


# Headers and the tokens each one accepts, for files that parse.
VALID = {
    "field q": ("0", "1", "-1", "2", "1/2", "-3/4", "1" * 50, "4/" + "7" * 50),
    "field gf 2": ("0", "1", "1" * 50),
    "field gf 5": ("0", "1", "3", "-1", "-" + "9" * 50),
}


@st.composite
def matrix_texts(draw):
    """A header line and a few rows of tokens: half the time a valid
    rectangular matrix, otherwise any header and tokens, rows ragged or empty."""
    valid = draw(st.booleans())
    header = draw(st.sampled_from(sorted(VALID) if valid else HEADERS))
    tokens = st.sampled_from(VALID[header] if valid else TOKENS)
    width = draw(st.integers(1, 4))
    ragged = not valid and draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1 if valid else 0, 4))):
        w = draw(st.integers(0, 5)) if ragged else width
        rows.append(" ".join(draw(st.lists(tokens, min_size=w, max_size=w))))
    return "\n".join([header, *rows]) + "\n"


@st.composite
def argvs(draw, path):
    """One subcommand with a mix of valid and invalid arguments."""
    command = draw(st.sampled_from(FILE_COMMANDS + ("feasible", "synthesize", "atlas")))
    argv = [command]
    if command in FILE_COMMANDS:
        argv.append(draw(st.sampled_from((path, path, path, path + ".missing"))))
    if command == "member" and draw(st.integers(0, 4)):
        tokens = draw(st.lists(vector_tokens, max_size=5))
        argv.append("--vector=" + " ".join(tokens))
    elif command == "factor":
        if draw(st.integers(0, 4)):
            argv += ["--kind", draw(st.sampled_from(("full", "rref", "rcef", "lu")))]
        if draw(st.booleans()):
            argv.append("--complete")
    elif command in ("feasible", "synthesize"):
        argv.append(draw(st.text(alphabet="rlbnx", max_size=6)))
        if command == "synthesize" and draw(st.booleans()):
            argv += ["--field", *draw(st.sampled_from((["q"], ["gf", "2"], ["gf", "3"],
                                                        ["gf", "4"], ["gf"], ["zz"])))]
    elif command == "atlas":
        argv += [draw(small_ints), draw(small_ints)]
    if command in ("atlas", "verify") and draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(-2, 400)))]
    if command == "verify" and draw(st.booleans()):
        argv += ["--seed", draw(small_ints)]
    if draw(st.integers(0, 5)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY_FLAGS)))
    return argv


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(st.data())
def test_cli_exit_codes_on_structured_files(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_matrix.txt"
    path.write_text(data.draw(matrix_texts()), encoding="utf-8")
    argv = data.draw(argvs(str(path)))
    assert run_quietly(argv) in EXIT_CODES, argv


@settings(max_examples=40, deadline=timedelta(seconds=2))
@given(st.binary(max_size=200), st.sampled_from(FILE_COMMANDS))
def test_cli_exit_codes_on_random_bytes(tmp_path_factory, content, command):
    path = tmp_path_factory.getbasetemp() / "fuzz_bytes.txt"
    path.write_bytes(content)
    argv = [command, str(path)]
    if command == "member":
        argv.append("--vector=1 0")
    elif command == "factor":
        argv += ["--kind", "full"]
    assert run_quietly(argv) in EXIT_CODES, argv
