"""Finite abelian groups with a compatible group action (finite ZG-modules).

An abelian subgroup is put into elementary-divisor coordinates; the ambient
group acts by conjugation through integer matrices on those coordinates.
Duals, minimal module-generator numbers and generating-tuple counts all
work on that coordinate representation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    NotAbelian,
    PreconditionViolated,
    SearchBudgetExceeded,
)
from .groups import FiniteGroup, Subgroup
from .ntheory import factorize
from .snf import smith_normal_form

RANK_ZG_CAP = 512
TUPLE_BUDGET = 1 << 22


@dataclass
class AbelianStructure:
    """Elementary-divisor coordinates on an abelian subgroup.

    Vectors are tuples over Z/d_1 x ... x Z/d_r with d_1 | d_2 | ... | d_r.
    """

    subgroup: Subgroup
    divisors: list[int]
    gens: list[int]  # parent indices of the coordinate generators
    to_vec: dict = field(repr=False)

    @property
    def exponent(self) -> int:
        return self.divisors[-1] if self.divisors else 1

    def rank(self) -> int:
        return len(self.divisors)

    def to_vector(self, elem: int) -> tuple:
        return self.to_vec[elem]

    def add(self, u: tuple, v: tuple) -> tuple:
        return tuple((a + b) % d for a, b, d in zip(u, v, self.divisors))

    def scale(self, m: int, v: tuple) -> tuple:
        return tuple((m * a) % d for a, d in zip(v, self.divisors))

    def zero(self) -> tuple:
        return (0,) * len(self.divisors)


def structure(a: Subgroup) -> AbelianStructure:
    """Elementary-divisor coordinates for an abelian subgroup."""
    if not a.is_abelian():
        raise NotAbelian("structure requires an abelian subgroup")
    p = a.parent
    gens0 = a.generating_set()
    if not gens0:
        return AbelianStructure(a, [], [], {0: ()})
    # relation lattice of Z^k -> A, found by enumerating the exponent box
    k = len(gens0)
    e = 1
    for g in gens0:
        e = math.lcm(e, p.element_order(g))
    relations = [[e if i == j else 0 for j in range(k)] for i in range(k)]
    for v in itertools.product(range(e), repeat=k):
        x = 0
        for vi, g in zip(v, gens0):
            x = p.mult(x, p.power(g, vi))
        if x == 0 and any(v):
            relations.append(list(v))
    d, _, _, qinv = smith_normal_form(relations)
    # new generator j = sum_i qinv[j][i] * gens0[i]; order = d[j][j]
    divisors = []
    new_gens = []
    for j in range(k):
        dj = d[j][j] if j < len(d) else 0
        if dj == 1:
            continue
        if dj == 0:
            raise PreconditionViolated("infinite quotient: relation lattice not full rank")
        g = 0
        for i in range(k):
            g = p.mult(g, p.power(gens0[i], qinv[j][i]))
        divisors.append(dj)
        new_gens.append(g)
    # coordinates via full enumeration
    to_vec: dict = {}
    for vec in itertools.product(*[range(dd) for dd in divisors]):
        x = 0
        for vi, g in zip(vec, new_gens):
            x = p.mult(x, p.power(g, vi))
        to_vec[x] = vec
    if math.prod(divisors) != len(a.elements) or set(to_vec) != a.elements:
        raise PreconditionViolated("elementary divisor decomposition failed to cover A")
    return AbelianStructure(a, divisors, new_gens, to_vec)


def rank(a: Subgroup) -> int:
    """Least number of generators of an abelian subgroup, read off element orders.

    a must be abelian.  Write A = Z/d_1 x ... x Z/d_r with 1 < d_1 | ... | d_r;
    its rank r is the number of nontrivial invariant factors.  For a prime p,
    the elements of order dividing p form the product of the Z/gcd(p, d_i),
    of order p^r_p with r_p = #{i : p | d_i}.  So r_p <= r for every p, and a
    prime p dividing d_1 divides every d_i, so r_p = r: the rank is the
    largest r_p over the primes p dividing |A|, and 0 for the trivial group.
    """
    orders = a.parent.element_orders()
    best = 0
    for p, _ in factorize(a.order):
        size = sum(1 for x in a.elements if orders[x] in (1, p))  # p^r_p
        r = 0
        while size > 1:
            size //= p
            r += 1
        best = max(best, r)
    return best


@dataclass
class GModule:
    """Finite abelian group in divisor coordinates with an action by matrices.

    One integer matrix per acting generator; matrices act on column vectors,
    rows reduced modulo the corresponding divisor.
    """

    divisors: list[int]
    action: list[list[list[int]]]
    base: Optional[AbelianStructure] = None

    @property
    def order(self) -> int:
        return math.prod(self.divisors) if self.divisors else 1

    def act(self, gen_idx: int, vec: tuple) -> tuple:
        m = self.action[gen_idx]
        return tuple(
            sum(m[i][j] * vec[j] for j in range(len(vec))) % self.divisors[i]
            for i in range(len(vec))
        )

    def all_vectors(self):
        return itertools.product(*[range(d) for d in self.divisors])

    def zero(self) -> tuple:
        return (0,) * len(self.divisors)

    def add(self, u: tuple, v: tuple) -> tuple:
        return tuple((a + b) % d for a, b, d in zip(u, v, self.divisors))


def module_from_subgroup(g: FiniteGroup, a: Subgroup) -> GModule:
    """Conjugation module on a normal abelian subgroup: x acts as a -> x a x^-1."""
    st = structure(a)
    mats = []
    for x in g.generators:
        xi = g.inv(x)
        cols = []
        for h in st.gens:
            img = g.mult(g.mult(x, h), xi)
            if img not in a.elements:
                raise PreconditionViolated("subgroup is not stable under conjugation")
            cols.append(st.to_vector(img))
        r = len(st.divisors)
        mats.append([[cols[j][i] for j in range(r)] for i in range(r)])
    return GModule(list(st.divisors), mats, base=st)


def dual_module(m: GModule) -> GModule:
    """Contragredient module on the character group, same divisor shape.

    A character with coordinates c sends the module element a to the root of
    unity with exponent sum_j c_j a_j e/d_j (out of e = exp A).  The action is
    (x . chi)(a) = chi(x^-1 . a).
    """
    r = len(m.divisors)
    if r == 0:
        return GModule([], [[] for _ in m.action])
    e = m.divisors[-1]
    duals = []
    for gi in range(len(m.action)):
        inv_mat = _invert_action(m, gi)
        # column i of the dual matrix: image of the i-th dual basis character
        cols = []
        for i in range(r):
            col = []
            for t in range(r):
                # pairing of (x.chi_i) with basis vector e_t:
                #   chi_i evaluated on x^-1 . e_t
                vec = tuple(
                    inv_mat[s][t] % m.divisors[s] for s in range(r)
                )
                exponent = (vec[i] * (e // m.divisors[i])) % e
                w = e // m.divisors[t]
                if exponent % w != 0:
                    raise PreconditionViolated("dual action does not respect divisors")
                col.append((exponent // w) % m.divisors[t])
            cols.append(col)
        duals.append([[cols[i][t] for i in range(r)] for t in range(r)])
    return GModule(list(m.divisors), duals)


def _invert_action(m: GModule, gen_idx: int) -> list[list[int]]:
    """Inverse of an action matrix as an automorphism (found by order of the matrix)."""
    r = len(m.divisors)
    ident = [[int(i == j) for j in range(r)] for i in range(r)]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(r)) % m.divisors[i]
                 for j in range(r)] for i in range(r)]

    def reduce(a):
        return [[a[i][j] % m.divisors[i] for j in range(r)] for i in range(r)]

    mat = reduce(m.action[gen_idx])
    prev = ident
    cur = mat
    steps = 0
    while cur != ident:
        prev = cur
        cur = mul(cur, mat)
        steps += 1
        if steps > m.order * r:
            raise PreconditionViolated("action matrix is not invertible")
    return prev


def pairing(m: GModule, chi: tuple, a: tuple) -> tuple[int, int]:
    """Value of a dual vector on a module vector as (exponent, order e)."""
    if not m.divisors:
        return (0, 1)
    e = m.divisors[-1]
    s = sum(c * x * (e // d) for c, x, d in zip(chi, a, m.divisors)) % e
    return (s, e)


def submodule_span(m: GModule, seeds: Sequence[tuple]) -> frozenset:
    """Smallest action-stable subgroup containing the seed vectors."""
    span = {m.zero()}
    work = list(seeds)
    while work:
        w = work.pop()
        if w in span:
            continue
        span.add(w)
        for u in list(span):
            s = m.add(w, u)
            if s not in span:
                work.append(s)
        for gi in range(len(m.action)):
            u = m.act(gi, w)
            if u not in span:
                work.append(u)
    return frozenset(span)


def cyclic_submodules(m: GModule) -> tuple[list[frozenset], dict]:
    """Distinct one-generator submodules and the element -> submodule-id map."""
    subs: list[frozenset] = []
    index: dict = {}
    elem_to_sub: dict = {}
    for v in m.all_vectors():
        s = submodule_span(m, [v])
        if s not in index:
            index[s] = len(subs)
            subs.append(s)
        elem_to_sub[v] = index[s]
    return subs, elem_to_sub


def _join_table(m: GModule, subs: list[frozenset]):
    cache: dict = {}

    def join(i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        if (i, j) in cache:
            return cache[(i, j)]
        if subs[i] <= subs[j]:
            r = j
        elif subs[j] <= subs[i]:
            r = i
        else:
            s = submodule_span(m, list(subs[i] | subs[j]))
            try:
                r = subs.index(s)
            except ValueError:
                subs.append(s)
                r = len(subs) - 1
        cache[(i, j)] = r
        return r

    return join


def rank_zg(m: GModule) -> int:
    """Least number of module generators (0 for the trivial module)."""
    if m.order == 1:
        return 0
    if m.order > RANK_ZG_CAP:
        raise SearchBudgetExceeded(f"module order {m.order} exceeds cap {RANK_ZG_CAP}")
    subs, elem_to_sub = cyclic_submodules(m)
    full_set = frozenset(m.all_vectors())
    try:
        full = subs.index(full_set)
    except ValueError:
        subs.append(full_set)
        full = len(subs) - 1
    ids = sorted(set(elem_to_sub.values()))
    # drop cyclic submodules contained in another candidate: only maximal ones matter
    maximal = [i for i in ids
               if not any(j != i and subs[i] < subs[j] for j in ids)]
    join = _join_table(m, subs)
    for r in range(1, len(m.divisors) + 1):
        for combo in itertools.combinations(maximal, r):
            acc = combo[0]
            for j in combo[1:]:
                acc = join(acc, j)
            if acc == full:
                return r
    raise SearchBudgetExceeded("no generating tuple found within rank bound")


def generating_tuples_count(m: GModule, r: int) -> int:
    """Exact number of ordered r-tuples that generate the module."""
    if m.order == 1:
        return 1
    if m.order ** r > TUPLE_BUDGET:
        raise SearchBudgetExceeded(f"|A|^r = {m.order ** r} exceeds budget")
    subs, elem_to_sub = cyclic_submodules(m)
    full_size = m.order
    counts: dict[int, int] = {}
    for v, sid in elem_to_sub.items():
        counts[sid] = counts.get(sid, 0) + 1
    join = _join_table(m, subs)
    total = 0
    for combo in itertools.product(sorted(counts), repeat=r):
        acc = combo[0]
        for j in combo[1:]:
            acc = join(acc, j)
        if len(subs[acc]) == full_size:
            weight = 1
            for j in combo:
                weight *= counts[j]
            total += weight
    return total
