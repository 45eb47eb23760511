"""Exact linear algebra: integer Smith normal form, rational row reduction,
and row reduction, kernels and eigenvalues modulo a prime.

Smith normal form and rational row reduction are arbitrary-precision; the
Smith pivot is chosen by least nonzero absolute value to keep coefficients
small at the matrix sizes used here.  Arithmetic modulo a prime q works on
int64 numpy arrays with entries in [0, q); every sum of products it forms
stays below m q^2, m the larger dimension of the matrix, which the caller
keeps below 2^63.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def smith_normal_form(mat: list[list[int]]):
    """Return (D, P, Q, Q^-1) with P·mat·Q = D diagonal, d_1 | d_2 | ...,
    d_i >= 0.

    P and Q are unimodular.  Q^-1 undoes each column operation of Q as a row
    operation, in the opposite order.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    d = [list(r) for r in mat]
    p = identity(rows)
    q = identity(cols)
    qinv = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in q:
            r[i], r[j] = r[j], r[i]
        qinv[i], qinv[j] = qinv[j], qinv[i]

    def add_row(i, j, c):
        # row i += c * row j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]

    def add_col(i, j, c):
        for r in d:
            r[i] += c * r[j]
        for r in q:
            r[i] += c * r[j]
        qinv[j] = [x - c * y for x, y in zip(qinv[j], qinv[i])]

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
    return d, p, q, qinv


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


def rref_mod(mat: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q of a 2-D integer array: (nonzero
    rows, their pivot columns)."""
    rows = np.asarray(mat, dtype=np.int64) % q
    pivots: list[int] = []
    for col in range(rows.shape[1]):
        r = len(pivots)
        if r == len(rows):
            break
        nonzero = np.flatnonzero(rows[r:, col])
        if not len(nonzero):
            continue
        rows[[r, r + nonzero[0]]] = rows[[r + nonzero[0], r]]
        rows[r] = rows[r] * pow(int(rows[r, col]), -1, q) % q
        factors = rows[:, col].copy()
        factors[r] = 0
        rows = (rows - np.outer(factors, rows[r])) % q
        pivots.append(col)
    return rows[:len(pivots)], pivots


def kernel_mod(mat: np.ndarray, q: int) -> np.ndarray:
    """Basis (rows) of the right kernel {v : mat v = 0} over F_q."""
    rows, pivots = rref_mod(mat, q)
    free = np.setdiff1d(np.arange(rows.shape[1]), pivots)
    basis = np.zeros((len(free), rows.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rows[:, free].T % q
    return basis


def eigenvalues_mod(mat: np.ndarray, q: int) -> np.ndarray:
    """The distinct eigenvalues in F_q of a square matrix, ascending.

    The characteristic polynomial comes from Faddeev-LeVerrier: with
    M_1 = I, c_m = 1, c_(m-k) = -tr(A M_k)/k and M_(k+1) = A M_k + c_(m-k) I.
    Its divisions by k <= m are exact over F_q when q > m.  The roots are
    found by one Horner pass over all of F_q.
    """
    a = np.asarray(mat, dtype=np.int64) % q
    m = len(a)
    if m >= q:
        raise ValueError(f"a {m} x {m} matrix needs a prime above {m}, not {q}")
    eye = np.eye(m, dtype=np.int64)
    coeffs = [1]  # highest degree first
    am = np.zeros_like(a)
    for k in range(1, m + 1):
        am = a @ ((am + coeffs[-1] * eye) % q) % q
        coeffs.append(-int(np.trace(am)) * pow(k, -1, q) % q)
    x = np.arange(q, dtype=np.int64)
    values = np.zeros(q, dtype=np.int64)
    for c in coeffs:
        values = (values * x + c) % q
    return np.flatnonzero(values == 0)
