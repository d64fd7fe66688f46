import random
import subprocess
import sys
import time
from pathlib import Path

import redlime as rl
from redlime.cli import run

DATA = Path(__file__).parent / "data"


def cli(capsys, *argv):
    code = run([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_memory_error_exits_3(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("redlime.cli._cmd_feasible", exhausted)
    assert cli(capsys, "feasible", "lbr") == (3, "", "error: out of memory\n")


def test_factor_rref_round_trip(capsys):
    for name in ["a_gf2.txt", "b_gf2.txt", "rank1_q.txt", "frac_q.txt"]:
        a = rl.load_matrix(DATA / name)
        for kind in ["full", "rref", "rcef"]:
            code, out, _ = cli(capsys, "factor", DATA / name, "--kind", kind)
            assert code == 0
            left, right = (rl.parse_matrix_text(part) for part in out.split("\n\n"))
            assert left @ right == a


def test_atlas_3_2_characterizes(capsys):
    for n, p in [(3, 2), (1, 3), (3, 3)]:
        code, out, _ = cli(capsys, "atlas", n, p)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "characterization: OK"
        assert sum(int(line.split()[1]) for line in lines[:-1]) == rl.subspace_count(n, p)


def test_atlas_budget_exceeded(capsys):
    code, _, err = cli(capsys, "atlas", "5", "2", "--budget", "10")
    assert code == 3
    start = time.monotonic()  # refused without counting every subspace
    assert cli(capsys, "atlas", "100000", "2")[0] == 3
    assert time.monotonic() - start < 2


def test_atlas_non_prime_modulus(capsys):
    assert cli(capsys, "atlas", "3", "4")[0] == 1
    assert cli(capsys, "atlas", "3", "1")[0] == 1


def test_atlas_rejects_non_positive_ambient(capsys):
    assert cli(capsys, "atlas", "0", "2")[0] == 1


def test_verify_passes_on_fixtures(capsys):
    for name in ["a_gf2.txt", "b_gf2.txt", "rank1_q.txt", "frac_q.txt",
                 "zero_gf2.txt"]:
        code, out, _ = cli(capsys, "verify", DATA / name)
        assert code == 0, name
        assert out.splitlines()[0] == "seed: 0"
        assert out.splitlines()[-1] == "verify: PASS"


def test_verify_skips_an_over_budget_span_up_front(tmp_path, capsys):
    rng = random.Random(20)
    p = 65521
    b = [[rng.randrange(p) for _ in range(15)] for _ in range(20)]
    c = [[rng.randrange(p) for _ in range(20)] for _ in range(15)]
    rows = [[sum(x * y for x, y in zip(r, col)) % p for col in zip(*c)] for r in b]
    path = tmp_path / "rank15_gf65521.txt"
    path.write_text(f"field gf {p}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    start = time.monotonic()  # the 65521 multiples of a row are never built
    code, out, _ = cli(capsys, "verify", path)
    assert time.monotonic() - start < 2
    assert code == 0
    assert rl.rank(rl.load_matrix(path)) == 15
    lines = out.splitlines()
    assert "span enumeration: skipped (budget)" in lines
    assert lines[-1] == "verify: PASS"


def test_verify_budget_between_span_and_ambient(capsys):
    # a_gf2.txt spans 4 of the 8 vectors of GF(2)^3: a budget of 4 still
    # checks the red/lime indices and skips only the ambient filter
    code, out, _ = cli(capsys, "verify", DATA / "a_gf2.txt", "--budget", "4")
    assert code == 0
    assert out.splitlines()[-3:] == ["red/lime indices match span enumeration: ok",
                                     "span enumeration: skipped (budget)",
                                     "verify: PASS"]
    code, out, _ = cli(capsys, "verify", DATA / "a_gf2.txt", "--budget", "3")
    assert code == 0
    assert out.splitlines()[-2:] == ["span enumeration: skipped (budget)", "verify: PASS"]


def test_verify_seed_flag_is_echoed(capsys):
    code, out, _ = cli(capsys, "verify", DATA / "a_gf2.txt", "--seed", "7")
    assert code == 0
    assert out.splitlines()[0] == "seed: 7"


def test_parse_errors_exit_2(capsys):
    # missing_header.txt and bad_token.txt are in criterion 10's table (test_acceptance.py)
    for name in ["bad_modulus.txt", "ragged.txt", "no_rows.txt", "frac_gf2.txt"]:
        code, _, err = cli(capsys, "rank", DATA / name)
        assert code == 2, name
        assert "parse error" in err


def test_unreadable_inputs_exit_2_promptly(tmp_path, capsys):
    cases = {
        "long_integer.txt": ("field q\n" + "7" * 5000 + " 1\n").encode(),
        "long_fraction.txt": ("field q\n1/" + "7" * 5000 + "\n").encode(),
        "long_modulus.txt": ("field gf " + "7" * 5000 + "\n1\n").encode(),
        "huge_prime.txt": f"field gf {2**127 - 1}\n1 0\n".encode(),
        "not_utf8.txt": b"field gf 2\n1 \xff\n",
    }
    for name, data in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        start = time.monotonic()
        code, _, err = cli(capsys, "rank", path)
        assert code == 2, name
        assert "parse error" in err
        assert time.monotonic() - start < 5, name


def test_huge_field_flag_is_usage_error(capsys):
    code, _, err = cli(capsys, "synthesize", "lr", "--field", "gf", str(2**127 - 1))
    assert code == 1 and "usage error" in err
    # a fullwidth three: int() takes it, the header grammar does not
    code, _, err = cli(capsys, "synthesize", "rl", "--field", "gf", "\uff13")
    assert code == 1 and "usage error: bad --field value: bad modulus" in err


def test_usage_errors_exit_1(capsys):
    assert cli(capsys, "rank", DATA / "absent.txt")[0] == 1
    assert cli(capsys, "no-such-command")[0] == 1
    assert cli(capsys)[0] == 1


def test_help_exits_0(capsys):
    assert cli(capsys, "--help")[0] == 0


def test_command_outputs_reparse_to_the_same_object(capsys):
    for name in ["a_gf2.txt", "b_gf2.txt", "rank1_q.txt", "frac_q.txt"]:
        a = rl.load_matrix(DATA / name)
        code, out, _ = cli(capsys, "red-basis", DATA / name)
        assert code == 0
        parsed = rl.parse_matrix_text(out)
        assert rl.row_space(parsed) == rl.row_space(a)
        assert parsed.row_vectors() == rl.row_space(a).red_basis

        code, out, _ = cli(capsys, "rref", DATA / name)
        assert rl.parse_matrix_text(out) == rl.rref(a)

        code, out, _ = cli(capsys, "nullspace", DATA / name)
        parsed = rl.parse_matrix_text(out)
        assert rl.row_space(parsed) == rl.nullspace(a)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "redlime", "rank", str(DATA / "a_gf2.txt")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI run starts a fresh interpreter, so each imported module is paid per run
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, redlime.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_results_too_long_to_print_exit_3_with_no_output(tmp_path, capsys):
    # every entry is inside the parse limit, but the reduced forms hold
    # values with more digits than the interpreter converts to text
    path = tmp_path / "huge_q.txt"
    path.write_text(f"field q\n{3**6000} {5**4000} {7**3500}\n"
                    f"{11**2800} {13**2600} {2**9900}\n")
    for argv in (["rref"], ["red-basis"], ["factor", "--kind", "rref"]):
        code, out, err = cli(capsys, *argv, path)
        assert code == 3, argv
        assert out == ""
        assert str(sys.get_int_max_str_digits()) in err and "Traceback" not in err
