"""Exact linear algebra: integer Smith normal form and rational row reduction.

Arbitrary-precision; the Smith pivot is chosen by least nonzero absolute value
to keep coefficients small at the matrix sizes used here.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def smith_normal_form(mat: list[list[int]]):
    """Return (D, P, Q) with P·mat·Q = D diagonal, d_1 | d_2 | ..., d_i >= 0.

    P and Q are unimodular.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    d = [list(r) for r in mat]
    p = identity(rows)
    q = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in q:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):
        # row i += c * row j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]

    def add_col(i, j, c):
        for r in d:
            r[i] += c * r[j]
        for r in q:
            r[i] += c * r[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        p[i] = [-x for x in p[i]]

    t = 0
    while t < min(rows, cols):
        # locate pivot: least nonzero absolute value in the trailing block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    c = d[i][t] // d[t][t]
                    add_row(i, t, -c)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    c = d[t][j] // d[t][t]
                    add_col(j, t, -c)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # divisibility repair: d[t][t] must divide every later entry
        dt = d[t][t]
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % dt != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if dt < 0:
            negate_row(t)
        t += 1
    return d, p, q


def rational_rref(mat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: (nonzero rows, their pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots
