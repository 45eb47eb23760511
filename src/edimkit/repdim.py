"""Minimal faithful representations: component counts, minimal bases, rdim.

Three routes to the minimal faithful dimension, used to cross-check each
other: a greedy minimal-basis construction when the socle is a central
p-subgroup, a shortest-generating-system search on the character module of an
abelian socle, and a general branch-and-bound over kernel intersections.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .abelian import (
    dual_module,
    module_from_subgroup,
    rank_zg,
    submodule_span,
)
from .chartab import (
    CharacterTable,
    character_table,
    kernel,
    restriction_data,
)
from .errors import (
    HypothesisFailed,
    InternalInconsistency,
    NotSemiFaithful,
    OutOfScope,
    SearchBudgetExceeded,
)
from .fields import (
    FieldDescriptor,
    has_primitive_root,
    is_semi_faithful,
    k_center,
    k_center_rank,
    supports_splitting,
)
from .groups import FiniteGroup, Subgroup
from .ntheory import is_prime, prime_power_base

PATH_C_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# component counts


def min_components(g: FiniteGroup, f: FieldDescriptor) -> int:
    """Least number of irreducible components of a faithful representation."""
    if not is_semi_faithful(g, f):
        raise NotSemiFaithful("no completely reducible faithful representation")
    if g.order == 1:
        return 1
    a = g.socle_abelian()
    if f.characteristic > 0 and a.order % f.characteristic == 0:
        raise InternalInconsistency(
            "semi-faithful group with char dividing the abelian socle")
    if a.order == 1:
        return 1
    return max(rank_zg(module_from_subgroup(g, a)), 1)


# ---------------------------------------------------------------------------
# minimal bases


@dataclass
class MinimalBasis:
    basis: list[tuple]  # character coefficient tuples
    f_values: list[int]
    rows: list[int]


def minimal_basis(divisors: list[int], f: Callable[[tuple], int],
                  row_of: Optional[Callable[[tuple], int]] = None) -> MinimalBasis:
    """Greedy basis of an elementary abelian character group, cheapest first.

    At each step the character minimizing (f value, lexicographic tuple)
    outside the span of the previous picks is chosen.
    """
    if divisors and any(d != divisors[0] for d in divisors):
        raise HypothesisFailed("character group is not elementary abelian")
    p = divisors[0] if divisors else 1
    r = len(divisors)
    all_chars = list(itertools.product(*[range(d) for d in divisors]))
    span = {(0,) * r}
    basis: list[tuple] = []
    f_values: list[int] = []
    rows: list[int] = []
    for _ in range(r):
        candidates = [c for c in all_chars if c not in span]
        chi = min(candidates, key=lambda c: (f(c), c))
        basis.append(chi)
        f_values.append(f(chi))
        if row_of is not None:
            rows.append(row_of(chi))
        # extend span: all combinations of old span with multiples of chi
        new_span = set()
        for s in span:
            for m in range(p):
                new_span.add(tuple((x + m * y) % d
                                   for x, y, d in zip(s, chi, divisors)))
        span = new_span
    return MinimalBasis(basis, f_values, rows)


# ---------------------------------------------------------------------------
# rdim


@dataclass
class RdimWitness:
    value: int
    component_rows: list[int]
    dimension_vector: list[int]
    path: str

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "component_rows": self.component_rows,
            "dimension_vector": self.dimension_vector,
            "path": self.path,
        }


def _verify_witness(table: CharacterTable, rows: list[int]) -> None:
    acc = frozenset(table.group.elements())
    for i in rows:
        acc = acc & kernel(table, i).elements
    if acc != frozenset([0]):
        raise InternalInconsistency("rdim witness rows are not jointly faithful")


def rdim(g: FiniteGroup, f: FieldDescriptor) -> RdimWitness:
    """Exact least dimension of a faithful representation, with witness rows."""
    if not supports_splitting(g, f):
        raise OutOfScope("field does not split the group")
    if g.order == 1:
        return RdimWitness(0, [], [], "trivial")
    table = character_table(g)
    soc = g.socle()
    if soc.is_central() and prime_power_base(soc.order):
        witness = _rdim_path_a(g, table, soc)
    elif soc.is_abelian():
        witness = _rdim_path_b(g, table)
    else:
        witness = _rdim_path_c(g, table)
    _verify_witness(table, witness.component_rows)
    return witness


def _rdim_path_a(g: FiniteGroup, table: CharacterTable,
                 soc: Subgroup) -> RdimWitness:
    if not soc.is_central() or prime_power_base(soc.order) is None:
        raise HypothesisFailed("socle is not a central prime-power subgroup")
    rd = restriction_data(table, soc)
    mb = minimal_basis(rd.st.divisors, rd.f, rd.f_row)
    rows = sorted(mb.rows)
    dims = sorted(mb.f_values)
    return RdimWitness(sum(dims), rows, dims, "A")


def _rdim_path_b(g: FiniteGroup, table: CharacterTable) -> RdimWitness:
    soc = g.socle()
    if not soc.is_abelian():
        raise HypothesisFailed("socle is not abelian")
    rd = restriction_data(table, soc)
    dual = dual_module(module_from_subgroup(g, soc))
    # cheapest generating system of the character module: shortest-path search
    # over submodules, one added character (with its cheapest row) per step
    zero = dual.zero()
    start = submodule_span(dual, [])
    full = frozenset(dual.all_vectors())
    nonzero = [c for c in dual.all_vectors() if c != zero]
    best: dict = {start: (0, [])}
    heap = [(0, 0, start, [])]
    counter = 0
    while heap:
        cost, _, state, picks = heapq.heappop(heap)
        if best.get(state, (cost + 1,))[0] < cost:
            continue
        if state == full:
            rows = sorted(rd.f_row(c) for c in picks)
            dims = sorted(rd.f(c) for c in picks)
            return RdimWitness(cost, rows, dims, "B")
        for chi in nonzero:
            if chi in state:
                continue
            nxt = submodule_span(dual, list(state) + [chi])
            ncost = cost + rd.f(chi)
            if nxt not in best or best[nxt][0] > ncost:
                counter += 1
                best[nxt] = (ncost, picks + [chi])
                heapq.heappush(heap, (ncost, counter, nxt, picks + [chi]))
    raise InternalInconsistency("character module has no generating system")


def _rdim_path_c(g: FiniteGroup, table: CharacterTable) -> RdimWitness:
    n = table.n_classes
    order = [i for i in range(n)]
    order.sort(key=lambda i: (table.degrees[i], i))
    kernels = [frozenset(kernel(table, i).elements) for i in order]
    degrees = [table.degrees[i] for i in order]
    trivial = frozenset([0])
    best_sum = [math.inf]
    best_rows: list[Optional[tuple]] = [None]
    nodes = [0]

    # suffix feasibility: intersection of all kernels from position i on
    suffix = [frozenset(g.elements())] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] & kernels[i]

    def dfs(pos: int, ker: frozenset, total: int, chosen: tuple):
        nodes[0] += 1
        if nodes[0] > PATH_C_BUDGET:
            raise SearchBudgetExceeded("kernel-intersection search budget exhausted")
        if ker == trivial:
            if total < best_sum[0] or (total == best_sum[0] and
                                       (best_rows[0] is None or chosen < best_rows[0])):
                best_sum[0] = total
                best_rows[0] = chosen
            return
        if pos == n:
            return
        if ker & suffix[pos] != trivial:
            return  # remaining rows can never finish the job
        if total + degrees[pos] > best_sum[0]:
            return  # admissible bound: at least one more component needed
        # option 1: take row pos (only if it strictly shrinks the kernel)
        nk = ker & kernels[pos]
        if nk != ker:
            dfs(pos + 1, nk, total + degrees[pos], chosen + (order[pos],))
        # option 2: skip row pos
        dfs(pos + 1, ker, total, chosen)

    dfs(0, frozenset(g.elements()), 0, ())
    if best_rows[0] is None:
        raise InternalInconsistency("no faithful combination of rows exists")
    rows = sorted(best_rows[0])
    dims = sorted(table.degrees[i] for i in rows)
    return RdimWitness(int(best_sum[0]), rows, dims, "C")


# ---------------------------------------------------------------------------
# central-extension transfer


@dataclass
class TransferReport:
    equality: bool
    rk_z_group: int
    rk_z_quotient: int
    known_side: str
    known_value: int
    transferred_value: int
    transferred_is_exact: bool
    economical_factor_exponent: int
    quotient_rank_identity: bool


def _direct_factor_exponent(gab: FiniteGroup, image: frozenset) -> int:
    """Least exponent of a direct factor of the abelian group A containing
    its subgroup B (in additive notation).

    Closed form: the product over primes p of p^k_p, where k_p is the least
    k such that no element of order p in B lies in p^k A.  Each p^k A is
    found as the set of p^k-th powers, raised one p at a time.

    Proof.  A direct factor is the sum of its p-parts, each a direct factor
    of A_p, with exponent the product of theirs, and B lies in it exactly
    when each B_p lies in its p-part.  So it suffices to show, for p-groups,
    that B lies in a direct factor D with p^k D = 0 exactly when B meets
    p^k A trivially.  (=>) If A = D + C with B <= D, then p^k A = p^k C lies
    in C, which meets D trivially.  (<=) Enlarge B to a p^k A-high subgroup
    D: maximal among those meeting p^k A trivially.  For x in D, p^k x lies
    in D and in p^k A, so D is bounded; a high subgroup is pure, and a
    bounded pure subgroup is a direct factor (Kulikov; Fuchs, "Infinite
    Abelian Groups" I, 1970, section 27).  In the whole of A, p^k A is
    p^k A_p plus the other primary parts, so its elements of order p are
    those of p^k A_p; and the p-group B_p meets p^k A_p trivially exactly
    when they share no element of order p.  The loop for p stops at the
    latest when p^k A_p = 0: A is a direct factor of itself.
    """
    orders = gab.element_orders()
    exp = 1
    for p in {orders[x] for x in image if is_prime(orders[x])}:
        order_p = {x for x in image if orders[x] == p}
        powers = set(gab.elements())
        while order_p & powers:
            powers = {gab.power(x, p) for x in powers}
            exp *= p
    return exp


def check_transfer_hypotheses(g: FiniteGroup, h: Subgroup,
                              f: FieldDescriptor) -> int:
    """Verify the central-extension hypotheses; returns the factor exponent."""
    if not h.is_central():
        raise HypothesisFailed("H is central in G")
    if not is_semi_faithful(g, f):
        raise HypothesisFailed("G is semi-faithful over k")
    comm = g.commutator_subgroup()
    if (h.elements & comm.elements) != frozenset([0]):
        raise HypothesisFailed("H intersects the commutator subgroup trivially")
    # a direct factor containing H has an exponent divisible by exp(H), so a
    # field without a primitive exp(H)-th root fails before the abelianization
    # G/[G, G] is built
    exp_h = math.lcm(*(g.element_order(x) for x in h.elements))
    if not has_primitive_root(f, exp_h):
        raise HypothesisFailed(
            f"k contains a primitive root of unity of order {exp_h}")
    if comm.order == 1:
        # g is abelian: it is its own abelianization
        gab, image = g, h.elements
    else:
        qm = g.quotient(comm)
        gab, image = qm.target, frozenset(qm.projection[x] for x in h.elements)
    exp_factor = _direct_factor_exponent(gab, image)
    if not has_primitive_root(f, exp_factor):
        raise HypothesisFailed(
            f"k contains a primitive root of unity of order {exp_factor}")
    return exp_factor


def central_ext_rdim(g: FiniteGroup, h: Subgroup, f: FieldDescriptor,
                     known_side: str, known_value: int) -> TransferReport:
    """Transfer a representation-dimension value across a central quotient.

    known_side is "group" (value is rdim of g) or "quotient" (rdim of g/h).
    When the socle of g is a central prime-power subgroup the defect
    rdim - rk(scalar center) matches on both sides exactly; otherwise only
    the inequality direction is certified and the transferred value is a bound.
    """
    exp_factor = check_transfer_hypotheses(g, h, f)
    rk_g = k_center_rank(g, f)
    qm = g.quotient(h)
    quotient = qm.target
    rk_q = k_center_rank(quotient, f)

    # quotient rank identity: the scalar center maps onto the quotient's
    zk = k_center(g, f)
    image = frozenset(qm.projection[x] for x in zk.elements)
    zq = k_center(quotient, f)
    identity_holds = image == zq.elements

    soc = g.socle()
    equality = soc.is_central() and prime_power_base(soc.order) is not None

    if known_side == "quotient":
        transferred = known_value - rk_q + rk_g
    elif known_side == "group":
        transferred = known_value - rk_g + rk_q
    else:
        raise HypothesisFailed("known_side must be 'group' or 'quotient'")
    return TransferReport(
        equality=equality,
        rk_z_group=rk_g,
        rk_z_quotient=rk_q,
        known_side=known_side,
        known_value=known_value,
        transferred_value=transferred,
        transferred_is_exact=equality,
        economical_factor_exponent=exp_factor,
        quotient_rank_identity=identity_holds,
    )
