"""Finite groups with indexed elements and structural subgroup computations.

Elements of a group are the integers 0..order-1, with 0 the identity.  Two
backends sit behind the same interface: a dense multiplication table for small
orders and a permutation backend (element -> index lookup) for large ones.
Indexing is deterministic: breadth-first closure over generator words, ties
broken by generator order, so downstream results are reproducible.

A table is built from the Cayley columns of that closure (x -> x*s for each
generator s), one numpy gather per element instead of one composition per
pair.  Every checked table group has its associativity verified in full, at
every order, by Light's test over its generators.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ClosureTooLarge,
    InternalInconsistency,
    NotNormal,
    TrivialGroup,
)
from .ntheory import is_prime

TABLE_LIMIT = 4096
ELEMENT_CAP = 50_000
SUBGROUP_LATTICE_LIMIT = 200


def compose(p: tuple, q: tuple) -> tuple:
    """Composition p after q: (p*q)(x) = p[q[x]]."""
    return tuple(p[i] for i in q)


def _perm_order(p: tuple) -> int:
    """Order of a permutation: lcm of its cycle lengths."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        order = math.lcm(order, length)
    return order


def perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class _Backend:
    """Multiplication oracle over indices 0..order-1."""

    order: int

    def mult(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError


class TableBackend(_Backend):
    def __init__(self, table: np.ndarray):
        self.order = table.shape[0]
        self.table = table
        # inverse of a is the unique b with table[a, b] == 0
        self.inv_table = np.argmin(table, axis=1)

    def mult(self, a, b):
        return int(self.table[a, b])

    def inv(self, a):
        return int(self.inv_table[a])


class PermBackend(_Backend):
    def __init__(self, perms: list[tuple]):
        self.order = len(perms)
        self.perms = perms
        self.index = {p: i for i, p in enumerate(perms)}
        self.inv_cache = [self.index[perm_inverse(p)] for p in perms]

    def mult(self, a, b):
        return self.index[compose(self.perms[a], self.perms[b])]

    def inv(self, a):
        return self.inv_cache[a]


class PairBackend(_Backend):
    """Direct product backend: index = a1 * |G2| + a2, componentwise product."""

    def __init__(self, g1: "FiniteGroup", g2: "FiniteGroup"):
        self.g1 = g1
        self.g2 = g2
        self.order = g1.order * g2.order

    def mult(self, a, b):
        n2 = self.g2.order
        a1, a2 = divmod(a, n2)
        b1, b2 = divmod(b, n2)
        return self.g1.mult(a1, b1) * n2 + self.g2.mult(a2, b2)

    def inv(self, a):
        n2 = self.g2.order
        a1, a2 = divmod(a, n2)
        return self.g1.inv(a1) * n2 + self.g2.inv(a2)


class QuotientBackend(_Backend):
    def __init__(self, parent: "FiniteGroup", proj: list[int], reps: list[int]):
        self.parent = parent
        self.proj = proj
        self.reps = reps
        self.order = len(reps)

    def mult(self, a, b):
        return self.proj[self.parent.mult(self.reps[a], self.reps[b])]

    def inv(self, a):
        return self.proj[self.parent.inv(self.reps[a])]


class FiniteGroup:
    """Finite group with elements indexed 0..order-1, identity at 0."""

    def __init__(
        self,
        backend: _Backend,
        generators: Sequence[int],
        name: str = "",
        perms: Optional[list[tuple]] = None,
        check: bool = True,
    ):
        self.backend = backend
        self.order = backend.order
        self.generators = list(generators)
        self.name = name
        # natural permutation action, when the group came from permutations
        self.perms = perms
        # (g1, g2) when built as a direct product, else None
        self.factors: Optional[tuple] = None
        self._classes: Optional[list[frozenset]] = None
        self._center: Optional["Subgroup"] = None
        self._commutator: Optional["Subgroup"] = None
        self._feet: Optional[list["Subgroup"]] = None
        self._socle: Optional["Subgroup"] = None
        self._socle_abelian: Optional["Subgroup"] = None
        self._orders: Optional[list[int]] = None
        self._fingerprint: Optional[str] = None
        if check:
            self._check_axioms()

    # -- multiplication oracle ------------------------------------------

    def mult(self, a: int, b: int) -> int:
        return self.backend.mult(a, b)

    def inv(self, a: int) -> int:
        return self.backend.inv(a)

    def conj(self, g: int, x: int) -> int:
        """g^-1 x g."""
        return self.mult(self.mult(self.inv(g), x), g)

    def commutator(self, a: int, b: int) -> int:
        return self.mult(self.mult(self.inv(a), self.inv(b)), self.mult(a, b))

    def right_column(self, h: int) -> np.ndarray:
        """x*h for every element x, indexed by x."""
        if isinstance(self.backend, TableBackend):
            return self.backend.table[:, h]
        return np.array([self.mult(x, h) for x in self.elements()])

    def elements(self) -> range:
        return range(self.order)

    def _check_axioms(self) -> None:
        """Check the group axioms: in full for a table, spot checks otherwise.

        A table passes when 0 is a two-sided identity, every element has a
        right inverse, the generators reach every element, and (Light's
        test) each generator s satisfies (x*s)*y = x*(s*y) for all x, y.
        That proves associativity: the set S of elements s with
        (x*s)*y = x*(s*y) for all x, y contains the identity and is closed
        under products, since for s, u in S
            (x*(s*u))*y = ((x*s)*u)*y = (x*s)*(u*y) = x*(s*(u*y)) = x*((s*u)*y),
        so S holds every product of generators, which is every element.  An
        associative table with identity and right inverses is a group.  The
        cost is 2*m*n^2 lookups for m generators.  Permutation, product and
        quotient backends inherit associativity from their construction.
        """
        n = self.order
        if not isinstance(self.backend, TableBackend):
            for g in (0, n - 1, n // 2):
                if self.mult(0, g) != g or self.mult(g, 0) != g:
                    raise InternalInconsistency("identity axiom failed")
                if self.mult(g, self.inv(g)) != 0:
                    raise InternalInconsistency("inverse axiom failed")
            return
        t = self.backend.table
        ident = np.arange(n)
        if not (np.array_equal(t[0], ident) and np.array_equal(t[:, 0], ident)):
            raise InternalInconsistency("identity axiom failed")
        if np.any(t[ident, self.backend.inv_table] != 0):
            raise InternalInconsistency("inverse axiom failed")
        if len(self.subgroup_closure(self.generators)) != n:
            raise InternalInconsistency("generators do not generate the table")
        # row blocks keep each temporary near 2^22 entries
        step = max(1, (1 << 22) // n)
        for s in self.generators:
            ts = t[s]
            for lo in range(0, n, step):
                rows = t[lo:lo + step]
                if not np.array_equal(t[rows[:, s]], rows[:, ts]):
                    raise InternalInconsistency("associativity failed")

    # -- element data ---------------------------------------------------

    def element_order(self, g: int) -> int:
        k = 1
        x = g
        while x != 0:
            x = self.mult(x, g)
            k += 1
        return k

    def element_orders(self) -> list[int]:
        if self._orders is None:
            if self.perms is not None and len(set(self.perms)) == self.order:
                self._orders = [_perm_order(p) for p in self.perms]
            else:
                self._orders = [self.element_order(g) for g in self.elements()]
        return self._orders

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(g), -k)
        r = 0
        x = g
        while k:
            if k & 1:
                r = self.mult(r, x)
            x = self.mult(x, x)
            k >>= 1
        return r

    # -- conjugacy classes ----------------------------------------------

    def conjugacy_classes(self) -> list[frozenset]:
        """Partition into conjugation orbits, ordered by minimal element."""
        if self._classes is not None:
            return self._classes
        seen = [False] * self.order
        classes = []
        gens = self.generators or []
        for start in self.elements():
            if seen[start]:
                continue
            orbit = {start}
            seen[start] = True
            queue = [start]
            while queue:
                x = queue.pop()
                for g in gens:
                    y = self.conj(g, x)
                    if not seen[y]:
                        seen[y] = True
                        orbit.add(y)
                        queue.append(y)
            classes.append(frozenset(orbit))
        classes.sort(key=min)
        self._classes = classes
        return classes

    def class_map(self) -> list[int]:
        cm = [0] * self.order
        for i, c in enumerate(self.conjugacy_classes()):
            for g in c:
                cm[g] = i
        return cm

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(self.mult(a, b) == self.mult(b, a) for a in gens for b in gens)

    # -- structural subgroups -------------------------------------------

    def center(self) -> "Subgroup":
        if self._center is None:
            gens = self.generators
            elems = frozenset(
                g for g in self.elements()
                if all(self.mult(g, h) == self.mult(h, g) for h in gens)
            )
            self._center = Subgroup(self, elems, normal=True)
        return self._center

    def commutator_subgroup(self) -> "Subgroup":
        if self._commutator is None:
            gens = [self.commutator(a, b)
                    for a in self.generators for b in self.generators]
            gens = sorted(set(g for g in gens if g != 0))
            self._commutator = self.normal_closure(gens) if gens else \
                Subgroup(self, frozenset([0]), normal=True)
        return self._commutator

    def subgroup_closure(self, gens: Iterable[int]) -> frozenset:
        """Elements of the subgroup generated by gens (BFS over the Cayley graph)."""
        gens = [g for g in gens if g != 0]
        seen = {0}
        order_list = [0]
        i = 0
        while i < len(order_list):
            x = order_list[i]
            i += 1
            for g in gens:
                y = self.mult(x, g)
                if y not in seen:
                    seen.add(y)
                    order_list.append(y)
        return frozenset(seen)

    def normal_closure(self, seed: Iterable[int]) -> "Subgroup":
        """Smallest normal subgroup containing the seed elements."""
        gens = sorted(set(g for g in seed if g != 0))
        if not gens:
            return Subgroup(self, frozenset([0]), normal=True, gens=[])
        while True:
            elems = self.subgroup_closure(gens)
            new = None
            for h in gens:
                for g in self.generators:
                    c = self.conj(g, h)
                    if c not in elems:
                        new = c
                        break
                if new is not None:
                    break
            if new is None:
                # closed under conjugation by generators => normal
                return Subgroup(self, elems, normal=True, gens=gens)
            gens.append(new)

    def feet(self) -> list["Subgroup"]:
        """All minimal nontrivial normal subgroups.

        Only classes of prime order are closed.  By Cauchy, a minimal normal
        subgroup N holds an element of prime order, and with it that
        element's class, whose normal closure is a nontrivial normal
        subgroup inside N, hence N itself.  A closure that is not minimal
        contains some minimal N, which is found too and removes it below.
        """
        if self._feet is None:
            if self.order == 1:
                raise TrivialGroup("feet undefined for the trivial group")
            orders = self.element_orders()
            closures: list[Subgroup] = []
            seen_sets = set()
            for cls in self.conjugacy_classes():
                rep = min(cls)
                if not is_prime(orders[rep]):
                    continue
                n = self.normal_closure([rep])
                if n.elements not in seen_sets:
                    seen_sets.add(n.elements)
                    closures.append(n)
            minimal = []
            for n in closures:
                if not any(m.elements < n.elements for m in closures):
                    minimal.append(n)
            minimal.sort(key=lambda s: (len(s.elements), sorted(s.elements)))
            self._feet = minimal
        return list(self._feet)

    def _join_of_feet(self, feet: list["Subgroup"]) -> "Subgroup":
        gens = sorted(set(itertools.chain.from_iterable(
            f.generating_set() for f in feet)))
        return Subgroup(self, self.subgroup_closure(gens), normal=True)

    def socle(self) -> "Subgroup":
        if self._socle is None:
            self._socle = self._join_of_feet(self.feet())
        return self._socle

    def socle_abelian(self) -> "Subgroup":
        if self._socle_abelian is None:
            self._socle_abelian = self._join_of_feet(
                [f for f in self.feet() if f.is_abelian()])
        return self._socle_abelian

    # -- quotients and products -----------------------------------------

    def quotient(self, n: "Subgroup") -> "QuotientMap":
        if n.parent is not self:
            raise NotNormal("subgroup belongs to a different parent")
        if not n.is_normal():
            raise NotNormal("subgroup is not normal")
        nel = sorted(n.elements)
        proj = [-1] * self.order
        reps: list[int] = []
        for x in self.elements():
            if proj[x] >= 0:
                continue
            cid = len(reps)
            reps.append(x)
            for m in nel:
                proj[self.mult(x, m)] = cid
        backend = QuotientBackend(self, proj, reps)
        qgens = []
        for g in self.generators:
            img = proj[g]
            if img != 0 and img not in qgens:
                qgens.append(img)
        target = FiniteGroup(backend, qgens, name=f"{self.name}/N" if self.name else "")
        if len(reps) <= TABLE_LIMIT:
            target = _tabulate(target)
        return QuotientMap(self, target, proj)

    def fingerprint(self, with_generators: bool = True) -> str:
        """Canonical fingerprint: order, class sizes, element-order histogram
        and (optionally) a hash of the generator data."""
        if self._fingerprint is None:
            sizes = sorted(len(c) for c in self.conjugacy_classes())
            hist = sorted(self.element_orders())
            h = hashlib.sha256()
            h.update(json.dumps([self.order, sizes, hist]).encode())
            self._fingerprint = f"{self.order}:{h.hexdigest()[:16]}"
        if with_generators:
            g = hashlib.sha256()
            g.update(json.dumps(self.generators).encode())
            if self.perms is not None:
                g.update(json.dumps([list(p) for p in self.perms[: 1]]).encode())
            return f"{self._fingerprint}:{g.hexdigest()[:8]}"
        return self._fingerprint

    def presentation_digest(self) -> str:
        """Hash of the generators' permutations or, for groups without a
        permutation action, of their columns x -> x*s of the multiplication
        table.  Either determines the group together with its indexing."""
        h = hashlib.sha256(json.dumps(self.generators).encode())
        if self.perms is not None:
            h.update(json.dumps([self.perms[s] for s in self.generators]).encode())
        elif isinstance(self.backend, TableBackend):
            h.update(np.ascontiguousarray(self.backend.table[:, self.generators],
                                          dtype="<i8").tobytes())
        else:
            h.update(json.dumps([[self.mult(x, s) for x in self.elements()]
                                 for s in self.generators]).encode())
        return h.hexdigest()[:16]

    def __repr__(self):
        label = self.name or "group"
        return f"<FiniteGroup {label} order={self.order}>"


@dataclass
class Subgroup:
    """Subgroup stored as an index set inside its parent."""

    parent: FiniteGroup
    elements: frozenset
    normal: Optional[bool] = None
    gens: Optional[list[int]] = None

    def __post_init__(self):
        if 0 not in self.elements:
            raise InternalInconsistency("subgroup misses the identity")
        if self.parent.order % len(self.elements) != 0:
            raise InternalInconsistency("Lagrange violated: size does not divide order")

    @property
    def order(self) -> int:
        return len(self.elements)

    def generating_set(self) -> list[int]:
        if self.gens is not None:
            return self.gens
        # greedy generation, deterministic
        gens: list[int] = []
        span = frozenset([0])
        for x in sorted(self.elements):
            if x not in span:
                gens.append(x)
                span = self.parent.subgroup_closure(gens)
                if span == self.elements:
                    break
        self.gens = gens
        return gens

    def is_normal(self) -> bool:
        if self.normal is None:
            p = self.parent
            self.normal = all(
                p.conj(g, h) in self.elements
                for h in self.generating_set()
                for g in p.generators
            )
        return self.normal

    def is_abelian(self) -> bool:
        p = self.parent
        gs = self.generating_set()
        return all(p.mult(a, b) == p.mult(b, a) for a in gs for b in gs)

    def is_central(self) -> bool:
        p = self.parent
        return all(
            p.mult(h, g) == p.mult(g, h)
            for h in self.generating_set()
            for g in p.generators
        )

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, self.elements & other.elements)

    def as_group(self) -> tuple[FiniteGroup, list[int]]:
        """Standalone group on the subgroup's elements.

        Returns (group, elems) where elems[i] is the parent index of
        element i of the new group.  Identity maps to identity.
        """
        elems = [0] + sorted(x for x in self.elements if x != 0)
        pos = {x: i for i, x in enumerate(elems)}
        n = len(elems)
        table = np.zeros((n, n), dtype=np.int32)
        p = self.parent
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                table[i, j] = pos[p.mult(x, y)]
        gens = [pos[g] for g in self.generating_set()]
        g = FiniteGroup(TableBackend(table), gens, check=False)
        return g, elems

    def __repr__(self):
        return f"<Subgroup order={self.order} of {self.parent!r}>"


@dataclass
class QuotientMap:
    source: FiniteGroup
    target: FiniteGroup
    projection: list[int]

    def fiber(self, c: int) -> frozenset:
        return frozenset(x for x in self.source.elements() if self.projection[x] == c)

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, self.fiber(0), normal=True)


def _tabulate(g: FiniteGroup) -> FiniteGroup:
    """Replace a product or quotient backend by a dense table (small orders only).

    Products of two table-backed factors and quotients of a table-backed
    parent are built with whole-array numpy indexing; only quotients of a
    permutation-backed parent multiply element by element.
    """
    n = g.order
    b = g.backend
    if isinstance(b, PairBackend) and isinstance(b.g1.backend, TableBackend) \
            and isinstance(b.g2.backend, TableBackend):
        # (a1, a2)(b1, b2) = (a1 b1, a2 b2), with index a1 * |G2| + a2
        t1 = b.g1.backend.table
        t2 = b.g2.backend.table
        table = (t1[:, None, :, None] * b.g2.order + t2[None, :, None, :]).reshape(n, n)
    elif isinstance(b, QuotientBackend) and isinstance(b.parent.backend, TableBackend):
        reps = np.asarray(b.reps)
        table = np.asarray(b.proj, dtype=np.int32)[b.parent.backend.table[np.ix_(reps, reps)]]
    else:
        table = np.zeros((n, n), dtype=np.int32)
        for x in range(n):
            for y in range(n):
                table[x, y] = g.mult(x, y)
    return FiniteGroup(TableBackend(table), g.generators, name=g.name, check=False)


def from_generators(
    perms: Sequence[Sequence[int]],
    degree: Optional[int] = None,
    name: str = "",
) -> FiniteGroup:
    """Group generated by permutations, indexed by breadth-first closure.

    Up to TABLE_LIMIT elements the multiplication table is assembled from
    the closure's Cayley columns right[k][x] = x*g_k: each element j other
    than the identity was first reached as j = p*g_k from an earlier p, and
    a*j = (a*p)*g_k, so column j of the table is right[k][column p].
    """
    if degree is None:
        degree = max((len(p) for p in perms), default=1)
    gens = []
    for p in perms:
        t = tuple(p)
        if sorted(t) != list(range(degree)):
            raise InternalInconsistency(f"not a permutation of 0..{degree-1}: {p}")
        gens.append(t)
    ident = tuple(range(degree))
    discovered = [ident]
    index = {ident: 0}
    right: list[list[int]] = [[] for _ in gens]
    # (p, k) with discovered[j] = discovered[p] * gens[k], for j >= 1
    origin: list[tuple[int, int]] = []
    i = 0
    while i < len(discovered):
        base = discovered[i]
        for k, g in enumerate(gens):
            w = compose(base, g)
            j = index.get(w)
            if j is None:
                if len(discovered) >= ELEMENT_CAP:
                    raise ClosureTooLarge(f"closure exceeds cap {ELEMENT_CAP}")
                j = index[w] = len(discovered)
                discovered.append(w)
                origin.append((i, k))
            right[k].append(j)
        i += 1
    gen_idx = [index[g] for g in gens]
    n = len(discovered)
    if n <= TABLE_LIMIT:
        cols = [np.asarray(r, dtype=np.int32) for r in right]
        table = np.empty((n, n), dtype=np.int32)
        table[:, 0] = np.arange(n, dtype=np.int32)
        for j, (p, k) in enumerate(origin, start=1):
            table[:, j] = cols[k][table[:, p]]
        return FiniteGroup(TableBackend(table), gen_idx, name=name, perms=discovered)
    return FiniteGroup(PermBackend(discovered), gen_idx, name=name, perms=discovered)


def from_table(elems: list, mult_fn: Callable, gens: list, name: str = "") -> FiniteGroup:
    """Group from an abstract element list, multiplication function and generators.

    elems[0] must be the identity.
    """
    pos = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    if n > TABLE_LIMIT:
        raise ClosureTooLarge(f"table backend limited to {TABLE_LIMIT} elements")
    table = np.zeros((n, n), dtype=np.int32)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            table[i, j] = pos[mult_fn(x, y)]
    return FiniteGroup(TableBackend(table), [pos[g] for g in gens], name=name)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with canonical embeddings g -> g*|G2|, h -> h."""
    if g1.order * g2.order > ELEMENT_CAP:
        raise ClosureTooLarge("product order exceeds cap")
    backend = PairBackend(g1, g2)
    n2 = g2.order
    gens = [g * n2 for g in g1.generators] + list(g2.generators)
    name = ""
    if g1.name and g2.name:
        name = f"{g1.name}x{g2.name}"
    g = FiniteGroup(backend, gens, name=name)
    if g.order <= TABLE_LIMIT:
        g = _tabulate(g)
    g.factors = (g1, g2)
    return g


def all_subgroups(g: FiniteGroup) -> list[frozenset]:
    """Every subgroup of a small group (test oracle, bottom-up closure)."""
    if g.order > SUBGROUP_LATTICE_LIMIT:
        raise ClosureTooLarge(
            f"subgroup lattice limited to order {SUBGROUP_LATTICE_LIMIT}")
    found = {frozenset([0])}
    frontier = [frozenset([0])]
    while frontier:
        nxt = []
        for h in frontier:
            for x in g.elements():
                if x in h:
                    continue
                new = g.subgroup_closure(sorted(h | {x}))
                if new not in found:
                    found.add(new)
                    nxt.append(new)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def normal_subgroups_bruteforce(g: FiniteGroup) -> list[frozenset]:
    out = []
    for s in all_subgroups(g):
        sub = Subgroup(g, s)
        if sub.is_normal():
            out.append(s)
    return out


def is_two_transitive(g: FiniteGroup) -> bool:
    """Whether the natural permutation action is 2-transitive and faithful.

    Only meaningful for groups built from permutations; returns False otherwise.
    """
    if g.perms is None:
        return False
    degree = len(g.perms[0])
    if degree < 2:
        return False
    if len(set(g.perms)) != g.order:
        return False
    # orbit of the ordered pair (0, 1) under the group must be all ordered pairs
    seen = {(0, 1)}
    queue = [(0, 1)]
    gens = [g.perms[i] for i in g.generators]
    while queue:
        a, b = queue.pop()
        for p in gens:
            t = (p[a], p[b])
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen) == degree * (degree - 1)
