"""Reference computations that only tests use: integer matrix products,
subgroup intersections, elementary-divisor coordinates back to elements,
integer kernels, and the constructive generator shift of the
elementary-divisor lemma."""

import math

from edimkit.abelian import AbelianStructure
from edimkit.errors import PreconditionViolated
from edimkit.groups import Subgroup
from edimkit.ntheory import factorize
from edimkit.snf import smith_normal_form


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    return Subgroup(a.parent, a.elements & b.elements)


def from_vector(st: AbelianStructure, vec) -> int:
    """The element with elementary-divisor coordinates vec (reduced mod d_i)."""
    key = tuple(v % d for v, d in zip(vec, st.divisors))
    return next(x for x, v in st.to_vec.items() if v == key)


def integer_kernel_basis(mat: list[list[int]]) -> list[list[int]]:
    """Basis (rows) of the lattice {v : mat · v = 0} for an integer matrix."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    d, _, q, _ = smith_normal_form(mat)
    rank = 0
    for i in range(min(rows, cols)):
        if d[i][i] != 0:
            rank += 1
    # kernel spanned by columns rank..cols-1 of q
    return [[q[i][j] for i in range(cols)] for j in range(rank, cols)]


def _coprime_relation(a: AbelianStructure, elems: list[int]) -> list[int]:
    """Coprime integer vector e with sum e_i * elems_i = 0 in the subgroup.

    Exists whenever rank of the generated subgroup < len(elems).
    """
    r = len(a.divisors)
    k = len(elems)
    cols = [a.to_vector(x) for x in elems]
    # kernel of Z^(k+r) -> Z^r, (v, w) -> X v + diag(d) w; project to v
    mat = [[cols[j][i] for j in range(k)] +
           [a.divisors[i] if t == i else 0 for t in range(r)]
           for i in range(r)]
    basis = [row[:k] for row in integer_kernel_basis(mat)]
    basis = [row for row in basis if any(row)]
    if not basis:
        raise PreconditionViolated("no relation among the given elements")
    d, _, _, qinv = smith_normal_form(basis)
    if d[0][0] != 1:
        raise PreconditionViolated("rank of generated subgroup is not below tuple size")
    vec = qinv[0]
    if math.gcd(*vec) != 1:
        raise PreconditionViolated("relation vector not coprime")
    return vec


def eldiv_shift(a: AbelianStructure, c: list[int], h: int) -> list[int]:
    """Integers m_i with <c_1 + m_1 h, ..., c_n + m_n h> = <c_1, ..., c_n, h>.

    Follows the constructive argument: handle each primary part of h in turn
    via a coprime relation and a unit inverse modulo the prime power, then
    recombine with the Chinese remainder theorem.  The result is re-verified
    by an explicit closure check.
    """
    p = a.subgroup.parent
    n = len(c)
    target = p.subgroup_closure(list(c) + [h])
    if target != a.subgroup.elements:
        raise PreconditionViolated("c together with h does not generate A")
    if a.rank() > n:
        raise PreconditionViolated("rank exceeds the number of shifted generators")
    if h == 0:
        return [0] * n

    oh = p.element_order(h)
    fact = factorize(oh)
    # primary decomposition h = sum_t h_t with h_t = beta_t * h
    betas = []
    parts = []
    for q, l in fact:
        ql = q ** l
        rest = oh // ql
        beta = rest * pow(rest, -1, ql)
        betas.append(beta % oh)
        parts.append(p.power(h, beta % oh))

    shifts = [[0] * len(parts) for _ in range(n)]
    current = list(c)
    for t, (ht, (q, l)) in enumerate(zip(parts, fact)):
        ql = q ** l
        rel = _coprime_relation(a, current + [ht])
        e = rel[:n]
        e0 = -rel[n]
        if e0 % q != 0:
            pass  # h_t already in <current>, no shift needed
        else:
            i = next(idx for idx in range(n) if e[idx] % q != 0)
            mi = ((1 - e0) * pow(e[i], -1, ql)) % ql
            shifts[i][t] = mi
            current[i] = p.mult(current[i], p.power(ht, mi))
    out = []
    for i in range(n):
        m = sum(shifts[i][t] * betas[t] for t in range(len(parts))) % oh
        out.append(m)
    shifted = [p.mult(c[i], p.power(h, out[i])) for i in range(n)]
    if p.subgroup_closure(shifted) != a.subgroup.elements:
        raise PreconditionViolated("generator shift failed its closure check")
    return out
