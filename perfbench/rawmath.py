"""Plain-number linear algebra for generating inputs and checking outputs.

Rows are lists of ints (residues mod p) or Fractions (p is None). None of
this goes through redlime, so it can referee redlime's answers.
"""

from __future__ import annotations

from fractions import Fraction

# A prime far above any denominator the generators produce (those have only
# prime factors up to 7), used to bound the rank of rational matrices.
BIG_PRIME = (1 << 61) - 1


def values(matrix) -> list:
    """A redlime Matrix (or a sequence of Vectors) as rows of plain values."""
    rows = matrix.rows if hasattr(matrix, "rows") else [v.entries for v in matrix]
    return [[e.value for e in row] for row in rows]


def _bits(row) -> int:
    out = 0
    for j, v in enumerate(row):
        if v:
            out |= 1 << j
    return out


def rank(rows, p) -> int:
    """Rank over GF(p), or over Q when p is None."""
    if p == 2:
        pivots: dict = {}
        for r in map(_bits, rows):
            while r:
                top = r.bit_length() - 1
                if top not in pivots:
                    pivots[top] = r
                    break
                r ^= pivots[top]
        return len(pivots)
    work = [list(r) for r in rows]
    n = len(work)
    m = len(work[0]) if work else 0
    r = 0
    for col in range(m):
        sel = next((i for i in range(r, n) if work[i][col]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        piv = work[r]
        inv = 1 / piv[col] if p is None else pow(piv[col], -1, p)
        for i in range(r + 1, n):
            c = work[i][col]
            if c:
                f = c * inv
                row = work[i]
                if p is None:
                    for j in range(col, m):
                        row[j] -= f * piv[j]
                else:
                    for j in range(col, m):
                        row[j] = (row[j] - f * piv[j]) % p
        r += 1
        if r == n:
            break
    return r


def rational_rank(rows, bound) -> int | None:
    """Exact rank of a rational matrix known to have rank at most ``bound``.

    The rank mod a prime never exceeds the rank over Q, so a modular rank
    equal to the bound proves the rank. Returns None when it falls short.
    """
    p = BIG_PRIME
    residues = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in rows]
    r = rank(residues, p)
    return r if r == bound else None


def matmul(a, b, p) -> list:
    """Product of two row lists over GF(p), or over Q when p is None."""
    m = len(b[0])
    if p == 2:
        bbits = [_bits(row) for row in b]
        out = []
        for row in a:
            acc = 0
            for k, c in enumerate(row):
                if c:
                    acc ^= bbits[k]
            out.append([(acc >> j) & 1 for j in range(m)])
        return out
    out = []
    for row in a:
        acc = [0] * m
        for k, c in enumerate(row):
            if c:
                bk = b[k]
                for j in range(m):
                    acc[j] += c * bk[j]
        out.append(acc if p is None else [x % p for x in acc])
    return out


def annihilates(a, vectors, p) -> bool:
    """True when every row of ``a`` is orthogonal to every vector."""
    if p == 2:
        abits = [_bits(row) for row in a]
        return all((x & _bits(v)).bit_count() % 2 == 0 for v in vectors for x in abits)
    for v in vectors:
        for row in a:
            s = sum(x * y for x, y in zip(row, v))
            if (s if p is None else s % p):
                return False
    return True


def random_matrix(rng, p, n, m, r) -> list:
    """A seeded n-by-m matrix over GF(p) of rank exactly r.

    Full-rank shapes are drawn whole and redrawn until full; lower ranks
    are the product of an n-by-r and an r-by-m factor, each of full rank.
    """
    def draw(rows, cols):
        while True:
            if p == 2:
                out = [[(bits >> j) & 1 for j in range(cols)]
                       for bits in (rng.getrandbits(cols) for _ in range(rows))]
            else:
                out = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            if rank(out, p) == min(rows, cols):
                return out
    if r == min(n, m):
        return draw(n, m)
    return matmul(draw(n, r), draw(r, m), p)


def small_fraction(rng) -> Fraction:
    """a/b with |a| <= 9 and 1 <= b <= 9."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_rational_matrix(rng, n, m, r) -> list:
    """A seeded n-by-m rational matrix of rank exactly r, built as the
    product of an n-by-r and an r-by-m factor with small-fraction entries."""
    while True:
        b = [[small_fraction(rng) for _ in range(r)] for _ in range(n)]
        g = [[small_fraction(rng) for _ in range(m)] for _ in range(r)]
        out = matmul(b, g, None)
        if rational_rank(out, r) == r:
            return out
