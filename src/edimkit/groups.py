"""Finite groups with indexed elements and structural subgroup computations.

Elements of a group are the integers 0..order-1, with 0 the identity.  Two
backends sit behind the same interface: a dense multiplication table for small
orders and a permutation backend (element -> index lookup) for large ones.
Indexing is deterministic: breadth-first closure over generator words, ties
broken by generator order, so downstream results are reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ClosureTooLarge,
    InternalInconsistency,
    NotNormal,
    TrivialGroup,
)

TABLE_LIMIT = 4096
ELEMENT_CAP = 50_000
FULL_ASSOC_LIMIT = 256
ASSOC_SAMPLES = 10_000
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

    def elements(self) -> range:
        return range(self.order)

    def _check_axioms(self) -> None:
        n = self.order
        for g in (0, n - 1, n // 2):
            if self.mult(0, g) != g or self.mult(g, 0) != g:
                raise InternalInconsistency("identity axiom failed")
            if self.mult(g, self.inv(g)) != 0:
                raise InternalInconsistency("inverse axiom failed")
        if n <= FULL_ASSOC_LIMIT and isinstance(self.backend, TableBackend):
            t = self.backend.table
            # (a*b)*c vs a*(b*c), fully vectorized
            left = t[t[:, :, None], np.arange(n)[None, None, :]]
            right = t[np.arange(n)[:, None, None], t[None, :, :]]
            if not np.array_equal(left, right):
                raise InternalInconsistency("associativity failed")
        elif not isinstance(self.backend, (PermBackend, PairBackend, QuotientBackend)):
            rng = random.Random(0xA55)
            for _ in range(min(ASSOC_SAMPLES, n * n)):
                a = rng.randrange(n)
                b = rng.randrange(n)
                c = rng.randrange(n)
                if self.mult(self.mult(a, b), c) != self.mult(a, self.mult(b, c)):
                    raise InternalInconsistency("associativity failed (sampled)")

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
        """All minimal nontrivial normal subgroups."""
        if self.order == 1:
            raise TrivialGroup("feet undefined for the trivial group")
        closures: list[Subgroup] = []
        seen_sets = set()
        for cls in self.conjugacy_classes():
            rep = min(cls)
            if rep == 0:
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
        return minimal

    def socle(self) -> "Subgroup":
        feet = self.feet()
        gens = sorted(set(itertools.chain.from_iterable(f.elements for f in feet)))
        return Subgroup(self, self.subgroup_closure(gens), normal=True)

    def socle_abelian(self) -> "Subgroup":
        feet = [f for f in self.feet() if f.is_abelian()]
        gens = sorted(set(itertools.chain.from_iterable(f.elements for f in feet)))
        return Subgroup(self, self.subgroup_closure(gens), normal=True)

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
    """Replace an arbitrary backend by a dense table (small orders only)."""
    n = g.order
    table = np.zeros((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(n):
            table[a, b] = g.mult(a, b)
    return FiniteGroup(TableBackend(table), g.generators, name=g.name, check=False)


def from_generators(
    perms: Sequence[Sequence[int]],
    degree: Optional[int] = None,
    name: str = "",
) -> FiniteGroup:
    """Group generated by permutations, indexed by breadth-first closure."""
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
    i = 0
    while i < len(discovered):
        base = discovered[i]
        i += 1
        for g in gens:
            w = compose(base, g)
            if w not in index:
                if len(discovered) >= ELEMENT_CAP:
                    raise ClosureTooLarge(f"closure exceeds cap {ELEMENT_CAP}")
                index[w] = len(discovered)
                discovered.append(w)
    gen_idx = [index[g] for g in gens]
    if len(discovered) <= TABLE_LIMIT:
        n = len(discovered)
        table = np.zeros((n, n), dtype=np.int32)
        for a, pa in enumerate(discovered):
            for b, pb in enumerate(discovered):
                table[a, b] = index[compose(pa, pb)]
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
