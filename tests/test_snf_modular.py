"""Row reduction, kernels and eigenvalues modulo a prime, against brute force
over F_q for q <= 31: row spaces by enumerating every combination of rows,
singularity by the Leibniz determinant."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edimkit.snf import eigenvalues_mod, kernel_mod, rref_mod

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def span(rows, q):
    """Every F_q-combination of the rows of a 2-D array, as a set of tuples."""
    coeffs = np.array(list(itertools.product(range(q), repeat=len(rows))),
                      dtype=np.int64).reshape(q ** len(rows), len(rows))
    return {tuple(v) for v in (coeffs @ rows % q).tolist()}


def rank(rows, q):
    """log_q of the size of the row space."""
    return round(math.log(len(span(rows, q)), q))


def det(a, q):
    """The Leibniz determinant mod q."""
    m = len(a)
    total = 0
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        total += (-1) ** inversions * math.prod(int(a[i][perm[i]]) for i in range(m))
    return total % q


@st.composite
def matrices(draw, max_rows=3, max_cols=4):
    q = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = draw(st.lists(st.integers(-2 * q, 2 * q), min_size=rows * cols,
                            max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols), q


@st.composite
def square_matrices(draw):
    q = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, min(4, q - 1)))
    entries = draw(st.lists(st.integers(-2 * q, 2 * q), min_size=m * m,
                            max_size=m * m))
    return np.array(entries, dtype=np.int64).reshape(m, m), q


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_spans_the_row_space_in_reduced_form(case):
    mat, q = case
    rows, pivots = rref_mod(mat, q)
    assert span(rows, q) == span(mat, q)
    assert len(rows) == len(pivots) == rank(mat, q)
    assert ((rows >= 0) & (rows < q)).all()
    assert pivots == sorted(set(pivots))
    for r, p in enumerate(pivots):
        assert not rows[r, :p].any()
        assert rows[:, p].tolist() == [int(i == r) for i in range(len(rows))]


@settings(max_examples=100, deadline=None)
@given(matrices(max_cols=3))
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
    expect = [lam for lam in range(q) if det(a - lam * eye, q) == 0]
    assert eigenvalues_mod(a, q).tolist() == expect


def test_eigenvalues_of_a_diagonalizable_matrix():
    # diag(2, 2, 5) conjugated by a unimodular matrix, mod 7
    p = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    p_inv = np.array([[1, -1, 1], [0, 1, -1], [0, 0, 1]])
    a = p @ np.diag([2, 2, 5]) @ p_inv
    assert eigenvalues_mod(a, 7).tolist() == [2, 5]
    assert len(kernel_mod(a - 2 * np.eye(3, dtype=np.int64), 7)) == 2
