"""The four workloads: seeded inputs, the ops of one pass, and their checks.

A run repeats whole passes over one set of inputs until its time is up, so
every run sees the same op mix whatever its length, and percentiles taken
over op latencies do not depend on where the clock stopped. Every input is
drawn from the seed; the program sees only the generated values.

Each workload's ``generate`` draws the raw inputs from the seed as plain
numbers and text; that is the benchmark's own work, done once per run and
not timed. Its ``build`` takes the imported library (a namespace of the
redlime modules), the raw inputs and a scratch directory, turns them into
the program's objects and returns a Plan; that is part of set-up. Ops look
functions up through the modules at call time, so the tracer's rebinding
reaches them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import rawmath
import reference


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _own_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Plan:
    ops: list                                   # one pass, in order
    warmup: list                                # ops run once at set-up, untimed
    rref_inputs: list                           # matrices for rref vs textbook_rref
    start_pass: Callable[[], None] = lambda: None
    # indices of ops failed by a check over a whole pass
    pass_failures: Callable[[list], set] = lambda results: set()
    traced_ops: list | None = None              # ops of the traced run, if not ``ops``
    layer_extras: Callable[[], dict] = dict     # per-layer metrics measured by the workload
    gauge: reference.Gauge = reference.KERNEL   # machine-speed gauge for ``ops``
    peak_kb: Callable[[], int] = _own_peak_kb   # peak resident memory of the ops so far


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: float      # percentile reported as op_tail_ms
    generate: Callable = field(repr=False)   # seed -> raw inputs
    build: Callable = field(repr=False)      # (lib, raw inputs, work dir) -> Plan


def _field(lib, p):
    return lib.fields.RATIONALS if p is None else lib.fields.gf(p)


def _matrix(lib, p, rows):
    return lib.matrix.Matrix.from_values(_field(lib, p), rows)


def _shuffled(rng, n):
    """A seeded order of ``n`` ops (``rng.shuffle`` of the indices)."""
    order = list(range(n))
    rng.shuffle(order)
    return order


# -- checks shared by the in-process workloads ---------------------------------

def _check_rref(lib, a, out):
    return out == lib.oracle.textbook_rref(a)


def _check_nullspace(a, p, true_rank, out):
    return (out.ambient == a.ncols and out.dimension == a.ncols - true_rank
            and rawmath.annihilates(rawmath.values(a), rawmath.values(out.red_basis), p))


def _check_frf(a, p, true_rank, f):
    return (f.rank == true_rank and f.b.ncols == true_rank and f.g.nrows == true_rank
            and rawmath.matmul(rawmath.values(f.b), rawmath.values(f.g), p) == rawmath.values(a))


def _check_matmul(lib, a, b, xs, c):
    apply = lib.matrix.apply_column_centric
    return (c.nrows == a.nrows and c.ncols == b.ncols
            and all(apply(c, x) == apply(a, apply(b, x)) for x in xs))


def _matrix_op(lib, kind, a, p, true_rank, b=None, xs=()):
    """One call of ``kind`` on ``a`` with the check that referees it."""
    m = lib.matrix
    if kind == "rref":
        return Op(kind, lambda: m.rref(a), lambda out: _check_rref(lib, a, out))
    if kind == "nullspace":
        return Op(kind, lambda: m.nullspace(a), lambda out: _check_nullspace(a, p, true_rank, out))
    if kind == "rank":
        return Op(kind, lambda: m.rank(a), lambda out: out == true_rank)
    if kind == "frf":
        return Op(kind, lambda: m.full_rank_factorization(a),
                  lambda out: _check_frf(a, p, true_rank, out))
    if kind == "matmul":
        return Op(kind, lambda: a @ b, lambda out: _check_matmul(lib, a, b, xs, out))
    raise ValueError(kind)


# -- tiny-sweep ------------------------------------------------------------------

def feasible(marks: str) -> bool:
    """Realizable mark strings: l opens and r closes, like parentheses."""
    depth = 0
    for ch in marks:
        if ch == "l":
            depth += 1
        elif ch == "r":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def subspace_total(n: int, p: int) -> int:
    """Number of subspaces of GF(p)^n (sum of Gaussian binomials)."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


TINY_SPACES = ((5, 2), (4, 3))   # GF(2)^5 and GF(3)^4
TINY_SEEDED = 256                # seeded 3x4 matrices each over GF(5) and Q


def _generate_tiny(seed):
    rng = random.Random(f"tiny-sweep:{seed}")
    mats = [(2, [[(bits >> (4 * i + j)) & 1 for j in range(4)] for i in range(3)])
            for bits in range(1 << 12)]
    mats += [(5, [[rng.randrange(5) for _ in range(4)] for _ in range(3)])
             for _ in range(TINY_SEEDED)]
    mats += [(None, [[rawmath.small_fraction(rng) for _ in range(4)] for _ in range(3)])
             for _ in range(TINY_SEEDED)]
    n_sub = sum(subspace_total(n, p) for n, p in TINY_SPACES)
    return SimpleNamespace(mats=[(p, rows, rawmath.rank(rows, p)) for p, rows in mats],
                           order=_shuffled(rng, n_sub + len(mats)))


def _build_tiny(lib, raw, work_dir):
    ops = []
    gens: dict = {}

    def sub_op(key, n):
        def run():
            w = next(gens[key])
            sig = lib.signatures.signature(w)
            lb = lib.subspace.lime_basis(w)
            c = lib.duality.complement(w)
            return w, sig, lb, c, lib.duality.complement(c) == w

        def check(out):
            w, sig, lb, c, back = out
            return (back and lb.dimension == w.dimension
                    and w.dimension + c.dimension == n and feasible(str(sig)))
        return Op("subspace", run, check)

    for n, p in TINY_SPACES:
        ops.extend(sub_op((n, p), n) for _ in range(subspace_total(n, p)))

    def mat_op(p, rows, r):
        a = _matrix(lib, p, rows)
        m = lib.matrix

        def check(out):
            red, null, rk = out
            return rk == r and _check_rref(lib, a, red) and _check_nullspace(a, p, r, null)
        return a, Op("matrix", lambda: (m.rref(a), m.nullspace(a), m.rank(a)), check)

    mats = [mat_op(p, rows, r) for p, rows, r in raw.mats]
    ops.extend(op for _, op in mats)
    # Interleave the kinds; subspace ops keep their order within each space.
    ops = [ops[i] for i in raw.order]

    def start_pass():
        gens.clear()
        for n, p in TINY_SPACES:
            gens[(n, p)] = iter(lib.oracle.enumerate_subspaces(n, p))

    sub_indices = [i for i, op in enumerate(ops) if op.kind == "subspace"]

    def pass_failures(results):
        # the realized signatures of each space must be exactly the feasible set
        realized: dict = {key: [] for key in TINY_SPACES}
        for i in sub_indices:
            out = results[i]
            if isinstance(out, tuple):
                realized[(out[0].ambient, out[0].field.modulus)].append(str(out[1]))
        for (n, p), sigs in realized.items():
            want = {"".join(s) for s in itertools.product("bnlr", repeat=n) if feasible("".join(s))}
            if len(sigs) != subspace_total(n, p) or set(sigs) != want:
                return set(sub_indices)
        return set()

    warmup = [mats[1][1], mats[-1][1]]
    return Plan(ops=ops, warmup=warmup, rref_inputs=[a for a, _ in mats],
                start_pass=start_pass, pass_failures=pass_failures)


# -- dense-modp ------------------------------------------------------------------

ALL5 = ("rref", "nullspace", "rank", "frf", "matmul")
THREE = ("rref", "nullspace", "rank")
FOUR = ("rref", "nullspace", "rank", "frf")

# (p, rows, cols, rank, ops on each matrix, matrices per pass). The classes
# form a latency ladder: 20 small ops; eight like ops at the median; 12 mid
# ops; six like ops around the 90th percentile; the two largest, at the
# reference sizes (200x200 over GF(2), 100x100 over GF(65521)). A group of
# like ops at each reported percentile keeps it from jumping between unlike
# ops from run to run.
DENSE_CLASSES = (
    (2, 25, 25, 25, ALL5, 1),
    (2, 25, 50, 18, THREE, 1),
    (65521, 12, 12, 12, ALL5, 1),
    (65521, 12, 24, 9, THREE, 1),
    (65521, 25, 25, 18, FOUR, 1),
    (2, 50, 50, 37, ("rref",), 8),
    (2, 50, 50, 50, ("matmul",), 1),
    (2, 50, 100, 50, THREE, 1),
    (65521, 25, 25, 25, ("matmul",), 1),
    (65521, 25, 50, 25, THREE, 1),
    (65521, 50, 50, 50, FOUR, 1),
    (2, 100, 100, 75, ("nullspace",), 6),
    (65521, 100, 100, 100, ("rref",), 1),
    (2, 200, 200, 200, ("rank",), 1),
)


def _generate_dense(seed):
    rng = random.Random(f"dense-modp:{seed}")
    mats = []  # (p, rows of a, rank, kinds, rows of b, vectors for @)
    for p, n, m, r, kinds, count in DENSE_CLASSES:
        for _ in range(count):
            a = rawmath.random_matrix(rng, p, n, m, r)
            b, xs = None, ()
            if "matmul" in kinds:
                b = rawmath.random_matrix(rng, p, m, m, m)
                xs = [[rng.randrange(p) for _ in range(m)] for _ in range(3)]
            mats.append((p, a, r, kinds, b, xs))
    return SimpleNamespace(mats=mats, order=_shuffled(rng, sum(len(x[3]) for x in mats)))


def _build_dense(lib, raw, work_dir):
    ops, rref_inputs, warmup = [], [], []
    for p, a_rows, r, kinds, b_rows, xs_values in raw.mats:
        a = _matrix(lib, p, a_rows)
        b = None if b_rows is None else _matrix(lib, p, b_rows)
        xs = [lib.subspace.Vector.from_values(_field(lib, p), x) for x in xs_values]
        class_ops = [_matrix_op(lib, k, a, p, r, b, xs) for k in kinds]
        ops.extend(class_ops)
        if "rref" in kinds:
            rref_inputs.append(a)
        if a.nrows <= 12:
            warmup.extend(class_ops)
    return Plan(ops=[ops[i] for i in raw.order], warmup=warmup, rref_inputs=rref_inputs)


# -- rational-growth -------------------------------------------------------------

# (size, rank, matrices per pass); each matrix gets rref, nullspace and rank.
RATIONAL_CLASSES = (
    (16, 12, 3), (16, 8, 3),
    (24, 18, 2), (24, 12, 2),
    (32, 24, 1), (32, 16, 1),
    (40, 30, 1), (40, 20, 1),
)


def _generate_rational(seed):
    rng = random.Random(f"rational-growth:{seed}")
    mats = [(rawmath.random_rational_matrix(rng, n, n, r), r)
            for n, r, count in RATIONAL_CLASSES for _ in range(count)]
    order = _shuffled(rng, len(THREE) * len(mats))
    return SimpleNamespace(mats=mats, order=order,
                           warmup=rawmath.random_rational_matrix(rng, 6, 6, 4))


def _build_rational(lib, raw, work_dir):
    ops, rref_inputs = [], []
    for rows, r in raw.mats:
        a = _matrix(lib, None, rows)
        ops.extend(_matrix_op(lib, k, a, None, r) for k in THREE)
        rref_inputs.append(a)
    small = _matrix(lib, None, raw.warmup)
    warmup = [_matrix_op(lib, k, small, None, 4) for k in THREE]
    return Plan(ops=[ops[i] for i in raw.order], warmup=warmup, rref_inputs=rref_inputs,
                gauge=reference.RATIONAL)


# -- cli-files -------------------------------------------------------------------

# (file stem, p, rows, cols, rank); p None is Q.
CLI_CORPUS = (
    ("g2_3x4", 2, 3, 4, 2),
    ("g2_12x16", 2, 12, 16, 12),
    ("g2_40x40", 2, 40, 40, 30),
    ("gp_3x4", 65521, 3, 4, 3),
    ("gp_20x20", 65521, 20, 20, 15),
    ("q_3x4", None, 3, 4, 2),
    ("q_12x12", None, 12, 12, 9),
    ("q_20x20", None, 20, 20, 15),
)

# (command, files it runs on); member alternates member/non-member vectors.
CLI_COMMANDS = (
    ("red-basis", ("g2_3x4", "g2_40x40", "gp_3x4", "gp_20x20", "q_12x12", "q_20x20")),
    ("rref", ("g2_3x4", "g2_12x16", "g2_40x40", "gp_3x4", "gp_20x20", "q_3x4", "q_20x20")),
    ("rank", ("g2_12x16", "g2_40x40", "gp_20x20", "q_12x12", "q_20x20")),
    ("nullspace", ("g2_3x4", "g2_40x40", "gp_3x4", "gp_20x20", "q_12x12")),
    ("member", ("g2_3x4", "g2_40x40", "gp_20x20", "q_3x4", "q_12x12", "q_20x20")),
    ("signature", ("g2_12x16", "g2_40x40", "gp_20x20", "q_12x12")),
    ("factor", ("g2_3x4", "gp_3x4", "q_12x12")),
    # not over GF(65521): its oracle cross-check enumerates p multiples of a row
    ("verify", ("g2_3x4", "q_3x4")),
)


def _render(p, rows) -> str:
    header = "field q" if p is None else f"field gf {p}"
    return header + "\n" + "".join(" ".join(str(v) for v in row) + "\n" for row in rows)


def _random_row(rng, p, m):
    if p is None:
        return [rawmath.small_fraction(rng) for _ in range(m)]
    return [rng.randrange(p) for _ in range(m)]


def _member_vector(rng, p, rows, true_rank, want_member):
    """A vector in the row span (sum of two rows) or one outside it."""
    m = len(rows[0])
    if want_member:
        s = [x + y for x, y in zip(rows[0], rows[-1])]
        return s if p is None else [x % p for x in s]
    while True:
        x = _random_row(rng, p, m)
        if (rawmath.rank(rows + [x], p) if p is not None
                else rawmath.rational_rank(rows + [x], true_rank + 1)) == true_rank + 1:
            return x


# Runs ``python -m redlime`` (``runpy`` is what ``-m`` uses), and at exit
# writes the child's own peak resident memory (VmHWM) to stderr. A child's
# ru_maxrss is no use: at exec Linux carries the peak of the process that
# spawned it into the child's, so every child would read at least the
# benchmark's own size.
CHILD_MAIN = """\
import atexit, runpy, sys
def _peak():
    with open("/proc/self/status") as fh:
        hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
    sys.stderr.write("perfbench-peak-kb %s\\n" % hwm[0])
atexit.register(_peak)
runpy.run_module("redlime", run_name="__main__", alter_sys=True)
"""
PEAK_PREFIX = "perfbench-peak-kb "


def _child_peak_kb(stderr: str) -> int:
    for line in reversed(stderr.splitlines()):
        if line.startswith(PEAK_PREFIX):
            return int(line[len(PEAK_PREFIX):])
    return 0


def _basis_ok(lib, stdout, fld, label, indices, vectors):
    lines = stdout.splitlines()
    want_head = [lib.matrixfile.field_header(fld),
                 f"# {label}: {' '.join(str(i) for i in indices)}".rstrip()]
    rows = [lib.matrixfile.parse_vector_text(line, fld) for line in lines[2:]]
    return lines[:2] == want_head and rows == list(vectors)


def _generate_cli(seed):
    rng = random.Random(f"cli-files:{seed}")
    corpus = {}  # stem -> (p, rows, rank, file text)
    for stem, p, n, m, r in CLI_CORPUS:
        rows = (rawmath.random_rational_matrix(rng, n, m, r) if p is None
                else rawmath.random_matrix(rng, p, n, m, r))
        corpus[stem] = (p, rows, r, _render(p, rows))
    members = {}  # stem -> (whether in the row span, vector text)
    flip = itertools.cycle((True, False))
    for stem in dict(CLI_COMMANDS).get("member", ()):
        p, rows, r, _ = corpus[stem]
        member = next(flip)
        members[stem] = (member, " ".join(str(v) for v in
                                          _member_vector(rng, p, rows, r, member)))
    n_ops = sum(len(stems) for _, stems in CLI_COMMANDS)
    return SimpleNamespace(corpus=corpus, members=members, order=_shuffled(rng, n_ops))


def _build_cli(lib, raw, work_dir):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # children load the bytecode caches too
    files = {}
    for stem, (p, rows, r, text) in raw.corpus.items():
        path = os.path.join(work_dir, stem + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        files[stem] = (path, p, rows, r, text)

    peak_kb = [0]

    def child(argv):
        def run():
            proc = subprocess.run([sys.executable, "-c", CHILD_MAIN, *argv], env=env,
                                  stdin=subprocess.DEVNULL, capture_output=True,
                                  text=True, timeout=120)
            peak_kb[0] = max(peak_kb[0], _child_peak_kb(proc.stderr))
            return proc.returncode, proc.stdout
        return run

    def in_process(argv):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = lib.cli.run(list(argv))
            return code, buf.getvalue()
        return run

    def check_for(cmd, stem, vector, member):
        path, p, rows, true_rank, text = files[stem]
        fld = _field(lib, p)
        m = lib.matrix

        def check(out):
            code, stdout = out
            a = lib.matrixfile.parse_matrix_text(text)
            if cmd == "red-basis":
                w = m.row_space(a)
                return code == 0 and _basis_ok(lib, stdout, fld, "red indices",
                                               w.red_indices, w.red_basis)
            if cmd == "nullspace":
                w = m.nullspace(a)
                return (code == 0 and w.dimension == a.ncols - true_rank
                        and _basis_ok(lib, stdout, fld, "red indices", w.red_indices, w.red_basis))
            if cmd == "rref":
                want = m.rref(a)
                return (code == 0 and want == lib.oracle.textbook_rref(a)
                        and lib.matrixfile.parse_matrix_text(stdout) == want)
            if cmd == "rank":
                return code == 0 and stdout == f"{true_rank}\n"
            if cmd == "signature":
                sig = str(lib.signatures.signature(m.row_space(a)))
                return code == 0 and stdout == sig + "\n" and feasible(sig)
            if cmd == "member":
                w = m.row_space(a)
                x = lib.matrixfile.parse_vector_text(vector, fld)
                if not member:
                    return code == 3 and stdout == "no\n"
                lines = stdout.splitlines()
                coords = lib.matrixfile.parse_vector_text(lines[1], fld).entries
                return (code == 0 and lines[0] == "yes"
                        and coords == lib.subspace.coordinates(w, x))
            if cmd == "factor":
                t_text, r_text = stdout.split("\n\n")
                t = lib.matrixfile.parse_matrix_text(t_text)
                r = lib.matrixfile.parse_matrix_text(r_text)
                return (code == 0 and (t, r) == m.rref_factorization(a, complete=True)
                        and rawmath.matmul(rawmath.values(t), rawmath.values(r), p) == rows)
            if cmd == "verify":
                return code == 0 and stdout.splitlines()[-1] == "verify: PASS"
            raise ValueError(cmd)
        return check

    ops, traced_ops = [], []
    for cmd, stems in CLI_COMMANDS:
        for stem in stems:
            argv = [cmd, files[stem][0]]
            member, vector = False, None
            if cmd == "member":
                member, vector = raw.members[stem]
                argv.append(f"--vector={vector}")  # a leading "-3/4" must not read as a flag
            elif cmd == "factor":
                argv += ["--kind", "rref", "--complete"]
            check = check_for(cmd, stem, vector, member)
            ops.append(Op(cmd, child(argv), check))
            traced_ops.append(Op(cmd, in_process(argv), check))
    # The same cheap command whatever the seed, run in-process: every child
    # starts cold by design, and the import at set-up has already written
    # the bytecode files the children load.
    warmup = traced_ops[:1]
    ops = [ops[i] for i in raw.order]
    traced_ops = [traced_ops[i] for i in raw.order]

    def layer_extras():
        return interpreter_costs(env)

    return Plan(ops=ops, warmup=warmup, traced_ops=traced_ops,
                rref_inputs=[_matrix(lib, p, rows) for _, p, rows, _, _ in files.values()],
                layer_extras=layer_extras, gauge=reference.PROCESS_START,
                peak_kb=lambda: peak_kb[0])


INTERP_REPEATS = 7  # child runs of each kind behind cli.interp_ms and cli.import_ms


def interpreter_costs(env) -> dict:
    """Median time (at nominal speed) of a bare interpreter start, and of a
    start that imports the CLI module, in alternating child runs."""
    def child_ms(code):
        _, seconds = reference.timed(lambda: subprocess.run(
            [sys.executable, "-c", code], env=env, stdin=subprocess.DEVNULL,
            capture_output=True, check=True, timeout=120))
        return seconds * 1e3

    bare, cli = [], []
    for _ in range(INTERP_REPEATS):
        bare.append(child_ms("pass"))
        cli.append(child_ms("import redlime.cli"))
    interp = statistics.median(bare)
    return {"cli.interp_ms": interp, "cli.import_ms": statistics.median(cli) - interp}


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("tiny-sweep", 99.0, _generate_tiny, _build_tiny),
    Workload("dense-modp", 90.0, _generate_dense, _build_dense),
    Workload("rational-growth", 90.0, _generate_rational, _build_rational),
    Workload("cli-files", 90.0, _generate_cli, _build_cli),
)}
