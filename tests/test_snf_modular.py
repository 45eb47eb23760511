"""Row reduction, eigenvalues and eigenspaces modulo a prime, against plain
Gauss-Jordan elimination on Python ints over F_q for q <= 31, and against
brute force where the row space is small enough to enumerate.  The kernel
oracle of `tests/oracles.py` is checked here too."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edimkit.snf import eigenspaces_mod, eigenvalues_mod, rref_mod
from oracles import kernel_mod

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
SPAN_LIMIT = 4096   # enumerate row spaces of at most this many vectors


def span(rows, q):
    """Every F_q-combination of the rows of a 2-D array, as a set of tuples."""
    coeffs = np.array(list(itertools.product(range(q), repeat=len(rows))),
                      dtype=np.int64).reshape(q ** len(rows), len(rows))
    return {tuple(v) for v in (coeffs @ rows % q).tolist()}


def reference_rref(mat, q):
    """Gauss-Jordan elimination on lists of Python ints, pivoting on the
    first nonzero entry: (nonzero rows, pivot columns)."""
    rows = [[x % q for x in row] for row in np.asarray(mat).tolist()]
    cols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][col], -1, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for k in range(len(rows)):
            f = rows[k][col]
            if k != r and f:
                rows[k] = [(x - f * y) % q for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def rank(rows, q):
    return len(reference_rref(rows, q)[1])


@st.composite
def matrices(draw, max_rows=12, max_cols=12):
    """Integer matrices up to max_rows x max_cols with entries in [-2q, 2q],
    some rows forced to be combinations of the others and some columns
    forced to zero."""
    q = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = draw(st.lists(st.integers(-2 * q, 2 * q), min_size=rows * cols,
                            max_size=rows * cols))
    mat = np.array(entries, dtype=np.int64).reshape(rows, cols)
    free = draw(st.integers(0, rows))     # rows past `free` depend on the others
    combos = draw(st.lists(st.integers(-q, q), min_size=(rows - free) * free,
                           max_size=(rows - free) * free))
    mat[free:] = np.array(combos, dtype=np.int64).reshape(rows - free, free) @ mat[:free]
    mat[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = 0
    return mat, q


@st.composite
def square_matrices(draw, max_size=12):
    q = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, min(max_size, q - 1)))
    entries = draw(st.lists(st.integers(-2 * q, 2 * q), min_size=m * m,
                            max_size=m * m))
    return np.array(entries, dtype=np.int64).reshape(m, m), q


@st.composite
def diagonalizable_matrices(draw):
    """P D P^-1 mod q for an invertible P and a diagonal D whose entries are
    either all distinct or drawn from a few values, so eigenvalues repeat."""
    a, q = draw(square_matrices())
    m = len(a)
    assume(rank(a, q) == m)
    if draw(st.booleans()):
        diag = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m,
                             unique=True))
    else:
        values = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
        diag = draw(st.lists(st.sampled_from(values), min_size=m, max_size=m))
    inv = np.array(reference_rref(np.hstack([a, np.eye(m, dtype=np.int64)]), q)[0],
                   dtype=np.int64)[:, m:]
    return a @ np.diag(diag) @ inv % q, q


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_spans_the_row_space_in_reduced_form(case):
    mat, q = case
    rows, pivots = rref_mod(mat, q)
    expect_rows, expect_pivots = reference_rref(mat, q)
    assert rows.tolist() == expect_rows and pivots == expect_pivots
    if q ** len(mat) <= SPAN_LIMIT:
        assert span(rows, q) == span(mat, q)
    assert ((rows >= 0) & (rows < q)).all()
    assert pivots == sorted(set(pivots))
    for r, p in enumerate(pivots):
        assert not rows[r, :p].any()
        assert rows[:, p].tolist() == [int(i == r) for i in range(len(rows))]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_is_an_independent_complement_of_the_rank(case):
    mat, q = case
    basis = kernel_mod(mat, q)
    cols = mat.shape[1]
    assert basis.shape == (cols - rank(mat, q), cols)
    assert not (mat @ basis.T % q).any()
    if len(basis):
        assert rank(basis, q) == len(basis)


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_eigenvalues_are_where_the_shift_is_singular(case):
    a, q = case
    eye = np.eye(len(a), dtype=np.int64)
    expect = [lam for lam in range(q) if rank(a - lam * eye, q) < len(a)]
    assert eigenvalues_mod(a, q).tolist() == expect


@settings(max_examples=100, deadline=None)
@given(diagonalizable_matrices())
def test_eigenspaces_are_the_kernels_of_the_shifts(case):
    a, q = case
    eye = np.eye(len(a), dtype=np.int64)
    expect = [reference_rref(kernel_mod((a - lam * eye).T, q), q)[0]
              for lam in eigenvalues_mod(a, q).tolist()]
    assert [s.tolist() for s in eigenspaces_mod(a, q)] == expect


def test_eigenspaces_need_a_diagonalizable_matrix():
    jordan = np.array([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
    with pytest.raises(ValueError, match="not diagonalizable"):
        eigenspaces_mod(jordan, 7)
    rotation = np.array([[0, -1], [1, 0]])   # x^2 + 1 has no root mod 7
    with pytest.raises(ValueError, match="not diagonalizable"):
        eigenspaces_mod(rotation, 7)


def test_eigenvalues_of_a_diagonalizable_matrix():
    # diag(2, 2, 5) conjugated by a unimodular matrix, mod 7
    p = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    p_inv = np.array([[1, -1, 1], [0, 1, -1], [0, 0, 1]])
    a = p @ np.diag([2, 2, 5]) @ p_inv
    assert eigenvalues_mod(a, 7).tolist() == [2, 5]
    assert len(kernel_mod(a - 2 * np.eye(3, dtype=np.int64), 7)) == 2
    assert [len(s) for s in eigenspaces_mod(a, 7)] == [2, 1]
