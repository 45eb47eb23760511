"""Exact linear algebra: integer Smith normal form, and row reduction,
eigenvalues and eigenspaces modulo a prime.

Smith normal form is arbitrary-precision; its pivot is chosen by least
nonzero absolute value to keep coefficients small at the matrix sizes used
here.  Arithmetic modulo a prime q works on int64 numpy arrays with entries
in [0, q); every sum of products it forms stays below m q^2, m the larger
dimension of the matrix, which the caller keeps below 2^63.
"""

from __future__ import annotations

import numpy as np


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def rref_mod(mat: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q of a 2-D integer array: (nonzero
    rows, their pivot columns).

    The reduced form is unique, so any nonzero entry of a column may serve as
    its pivot: the largest is found with one `argmax`, and rows are updated
    in place.
    """
    rows = np.asarray(mat, dtype=np.int64) % q
    n = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(rows.shape[1]):
        if r == n:
            break
        i = r + int(rows[r:, col].argmax())
        if not rows[i, col]:
            continue
        if i != r:
            rows[[r, i]] = rows[[i, r]]
        pivot = rows[r] * pow(int(rows[r, col]), -1, q) % q
        rows -= rows[:, col, None] * pivot
        rows[r] = pivot
        rows %= q
        pivots.append(col)
        r += 1
    return rows[:r], pivots


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


def eigenspaces_mod(mat: np.ndarray, q: int) -> list[np.ndarray]:
    """The left eigenspaces {x : x mat = lam x} of a square matrix that is
    diagonalizable over F_q, one per eigenvalue lam ascending, each in
    reduced row echelon form.

    With distinct eigenvalues lam_1 < ... < lam_r in F_q, mat is
    diagonalizable over F_q exactly when the product of all (mat - lam_i)
    is 0 (checked; ValueError otherwise).  Then P_j, the product of the
    (mat - lam_i) for i != j, vanishes on every eigenspace but lam_j's and
    is invertible on that one, so its rows span the left eigenspace of
    lam_j.  When all m eigenvalues of an m x m matrix are distinct, each
    eigenspace is a line, spanned by any nonzero row of P_j; otherwise each
    is the reduced row echelon form of P_j.
    """
    a = np.asarray(mat, dtype=np.int64) % q
    lams = eigenvalues_mod(a, q)
    eye = np.eye(len(a), dtype=np.int64)
    factors = [(a - lam * eye) % q for lam in lams.tolist()]
    before = [eye]      # before[j]: product of the factors i < j
    for f in factors:
        before.append(before[-1] @ f % q)
    if before[-1].any():
        raise ValueError("the matrix is not diagonalizable over F_q")
    spaces = []
    after = eye         # product of the factors i > j
    for j in range(len(factors) - 1, -1, -1):
        p = before[j] @ after % q
        if len(lams) == len(a):
            row = p[(p != 0).any(axis=1).argmax()]
            lead = row[(row != 0).argmax()]
            spaces.append(row[None] * pow(int(lead), -1, q) % q)
        else:
            spaces.append(rref_mod(p, q)[0])
        after = factors[j] @ after % q
    return spaces[::-1]
