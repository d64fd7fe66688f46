#!/usr/bin/env python3
"""Mutation check of the test suite: does some test fail on each of a list of
hand-written one-line mutants of the package?

Each mutant replaces one piece of text in one file by another. For each, the
tree (``src``, ``tests``, ``scripts`` and ``pyproject.toml``) is copied to a
temporary directory, the mutant is applied there, and ``pytest -x -q`` runs
on the copy, over every ``tests/test_*.py`` file, named one by one: in name
order, but for the mutants in ``PACKED_FIRST``, which run
``tests/test_packed.py`` first. A mutant is killed when pytest fails (the
first failing test is printed), and survives when it passes. The checkout
itself is never changed.

Every listed mutant must be killed: the red and lime bases are canonical,
so a mutant that changes no answer (a kernel gate moved, a keys-only call
taking both phases, a normalisation or an exact division left out) is
pinned by a test that reads the gate, the phase or the invariant itself.
Each survivor is listed at the end, and the exit status is 1 when there is
one. A killed mutant takes a few seconds to a minute, a survivor a full
run of the suite.

With ``--check`` nothing runs: it only checks that each mutant's original
text occurs exactly once in its file, so that the lists keep up with the
code.

    python3 scripts/mutants.py [--check]
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml")
SUB = "src/redlime/subspace.py"
CHECK_TEST = "tests/test_scripts.py::test_mutants_find_each_original_text_once"
PACKED = "tests/test_packed.py"
# The mutants that no test file sorted before PACKED kills, only its
# white-box checks of the reducer, the gates, the phases, the normalisation
# and the entry bound: these run PACKED first. The others keep name order, where
# test_acceptance.py kills most in seconds; PACKED is most of the suite's
# time, so running it first for every mutant of SUB made a full run slower,
# not faster.
PACKED_FIRST = {
    "one correction round instead of two",
    "quotient estimate from bits(p), not bits(p) - 1",
    "slot kernels from another size",
    "narrower codec tables",
    "integer rows kept unnormalised",
    "GF(2) keys take both passes",
    "odd-p keys take both passes",
    "Q keys pass without the exact division",
    "Q keys Bareiss cap moved",
}

# (name, file, original text, mutated text)
MUTANTS = (
    # the slot width, the packed reducer and the residue codec
    ("slot width narrowed to the reducer's bound", SUB,
     "k = _slot_bytes(2 * (s - a))",
     "k = _slot_bytes(s)"),
    ("reducer bound without bits(terms)", SUB,
     "2 * b + terms.bit_length(), b + 1",
     "2 * b, b + 1"),
    ("one correction round instead of two", SUB,
     "        x -= ((x + over) >> f & ones) * p\n",
     ""),
    ("quotient estimate from bits(p), not bits(p) - 1", SUB,
     "a, s, f = b - 1,",
     "a, s, f = b,"),
    ("product slot width narrowed", SUB,
     "_slot_reducer(p, len(rows), m)",
     "_slot_reducer(p, 1, m)"),
    ("residue codec pad one byte short", SUB,
     'f"{code}{k - size}x"',
     'f"{code}{k - size - 1}x"'),
    # the kernels
    ("GF(2) key off by one", SUB,
     "            t = x.bit_length() - 1\n            b = basis.get(t)",
     "            t = x.bit_length()\n            b = basis.get(t)"),
    ("GF(2) full-span shortcut one key early", SUB,
     "    echelon = _echelon_bits(xs)\n    if len(echelon) == n:",
     "    echelon = _echelon_bits(xs)\n    if len(echelon) == n - 1:"),
    ("odd-p list full-span shortcut one key early", SUB,
     "    echelon = _echelon_rows(rows, p)\n    if len(echelon) == n:",
     "    echelon = _echelon_rows(rows, p)\n    if len(echelon) == n - 1:"),
    ("odd-p list back-substitution skipped", SUB,
     "            c = x[i]\n            if c:",
     "            c = x[i]\n            if False:"),
    ("integer clearing step adds", SUB,
     "x = [d * u - c * v for u, v in zip(x, b)]",
     "x = [d * u + c * v for u, v in zip(x, b)]"),
    ("membership reads the wrong entries", SUB,
     "coefficient_rows = [[x[i - 1] for i in w._indices] for x in rows]",
     "coefficient_rows = [[x[i - 2] for i in w._indices] for x in rows]"),
    ("terminating index 0-based", SUB,
     "    p = _last_nonzero(v._raw)\n    return None if p is None else p + 1",
     "    p = _last_nonzero(v._raw)\n    return None if p is None else p"),
    ("originating index off by one", SUB,
     "return None if p is None else len(v._raw) - p",
     "return None if p is None else len(v._raw) - p - 1"),
    # the one elimination
    ("lime rows not reversed", SUB,
     "        rows = [r[::-1] for r in rows]",
     "        rows = list(rows)"),
    ("lime read-back without its [::-1]", SUB,
     "tuple(basis[k][::-1])",
     "tuple(basis[k])"),
    ("lime read-back keys not mirrored", SUB,
     "{n - 1 - k: tuple(",
     "{k: tuple("),
    ("lime keys not mirrored", SUB,
     "{n - 1 - k for k in basis}",
     "{k for k in basis}"),
    ("GF(2) lime keys not mirrored", SUB,
     "{n - 1 - t for t in keys}",
     "{t for t in keys}"),
    ("GF(2) lime rows' keys not mirrored", SUB,
     "{n - 1 - t: table[x]",
     "{t: table[x]"),
    ("codec flip inverted", SUB,
     "xs = _codes(rows, n, not lime)",
     "xs = _codes(rows, n, lime)"),
    ("table codec ignores flip", SUB,
     "_CODES[tuple(r[::-1])]",
     "_CODES[tuple(r)]"),
    ("translation codec ignores flip", SUB,
     "int(bytearray(r)[::-1].translate(_DIGITS), 2)",
     "int(bytearray(r).translate(_DIGITS), 2)"),
    ("GF(2) red rows not read backwards", SUB,
     "{t: table[x][::-1] for",
     "{t: table[x] for"),
    # the gates, the phases, the normalisation and the exact division: no
    # answer moves, the tests pin them
    ("GF(2) keys take both passes", SUB,
     "keys = _echelon_bits(xs)",
     "keys = _red_bits(xs, n)"),
    ("odd-p keys take both passes", SUB,
     "basis = (_echelon_slots if keys_only else _red_echelon_slots)(rows, p)",
     "basis = _red_echelon_slots(rows, p)"),
    ("Q keys pass without the exact division", SUB,
     "            prev = d\n",
     "            prev = 1\n"),
    ("Q keys Bareiss cap moved", SUB,
     "_BAREISS_BITS = 157", "_BAREISS_BITS = 64"),
    ("slot kernels from another size", SUB,
     "_SLOTS_FROM = 7", "_SLOTS_FROM = 6"),
    ("narrower codec tables", SUB,
     "_TABLE_WIDTH = 8", "_TABLE_WIDTH = 6"),
    ("integer rows kept unnormalised", SUB,
     "        if g != 1:\n            x = [u // g for u in x]",
     "        if False:\n            x = [u // g for u in x]"),
    # the read-offs and the answers built on them
    ("complement read-off drops the negation", "src/redlime/duality.py",
     "z[i] = -row[o] if p is None else p - row[o]",
     "z[i] = row[o]"),
    ("dependent columns miss the last", "src/redlime/matrix.py",
     "frozenset(range(1, a.ncols + 1))",
     "frozenset(range(1, a.ncols))"),
    ("matrix rows split at every str.splitlines() break", "src/redlime/matrixfile.py",
     r're.split(r"\r\n?|\n", text)',
     "text.splitlines()"),
    ("header modulus takes any Unicode digit", "src/redlime/matrixfile.py",
     're.fullmatch(r"[0-9]+", tokens[1])',
     "tokens[1].isdigit()"),
    ("CLI usage error exits 2", "src/redlime/cli.py",
     '        print(f"usage error: {exc}", file=sys.stderr)\n        return 1',
     '        print(f"usage error: {exc}", file=sys.stderr)\n        return 2'),
    # equality and field checks: raw values coincide across fields
    ("Scalar == ignores the field", "src/redlime/fields.py",
     "return self.field == other.field and self.value == other.value",
     "return self.value == other.value"),
    ("Vector == ignores the field", SUB,
     "return self.field == other.field and self._raw == other._raw",
     "return self._raw == other._raw"),
    ("Matrix == ignores the field", "src/redlime/matrix.py",
     "return self.field == other.field and self._raw == other._raw",
     "return self._raw == other._raw"),
    ("subspace == ignores the ambient", SUB,
     "return (self.field == other.field and self.ambient == other.ambient",
     "return (self.field == other.field"),
    ("subspace_leq without its field check", SUB,
     "    _check_field(v.field, w.field)\n    if w.ambient != v.ambient:",
     "    if w.ambient != v.ambient:"),
)


def check(mutants) -> list:
    """The mutants whose original text does not occur exactly once, and the
    names in PACKED_FIRST that name no mutant."""
    bad = []
    for name, path, original, _ in mutants:
        count = (ROOT / path).read_text().count(original)
        if count != 1:
            bad.append(f"{name}: original text occurs {count} times in {path}")
    names = {m[0] for m in mutants}
    return bad + [f"{name}: in PACKED_FIRST but no mutant" for name in sorted(PACKED_FIRST - names)]


def suite_files(first=None) -> list:
    """The test files, relative to the tree: first, if given, then the others
    by name. Named one by one, since pytest runs a directory in name order
    even after a file of it was named first."""
    files = sorted(f"tests/{f.name}" for f in (ROOT / "tests").glob("test_*.py"))
    return [f for f in files if f == first] + [f for f in files if f != first]


def run_mutant(path, original, mutated, first=None) -> tuple:
    """(the first failing test, or None if the mutant survived; seconds) for
    one mutant, run on a copy of the tree, the test file first, if given,
    running first."""
    with tempfile.TemporaryDirectory(prefix="redlime-mutant-") as tmp:
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, Path(tmp) / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, Path(tmp) / part)
        target = Path(tmp) / path
        target.write_text(target.read_text().replace(original, mutated, 1))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        # the --check test fails on any mutant, whose original text is gone
        result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                 "--deselect", CHECK_TEST, *suite_files(first)],
                                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True)
        seconds = time.perf_counter() - start
    if result.returncode == 0:
        return None, seconds
    # "FAILED <test id> - <message>"; a test id may hold spaces
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in result.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return (failed[0] if failed else f"pytest exit {result.returncode}"), seconds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="only check that each original text occurs once in its file")
    args = ap.parse_args()
    bad = check(MUTANTS)
    if args.check or bad:
        print("\n".join(bad) or f"{len(MUTANTS)} mutants, each original text found once")
        return 1 if bad else 0
    survivors = []
    for name, path, original, mutated in MUTANTS:
        killer, seconds = run_mutant(path, original, mutated,
                                     PACKED if name in PACKED_FIRST else None)
        print(f"{seconds:6.1f} s  {name}: {f'killed by {killer}' if killer else 'survived'}",
              flush=True)
        if killer is None:
            survivors.append(name)
    print(f"\n{len(survivors)} survivor(s)" + "".join(f"\n  {s}" for s in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
