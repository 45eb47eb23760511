"""Finite groups with indexed elements and structural subgroup computations.

Elements are the integers 0..order-1, 0 the identity, indexed by breadth-first
closure over generator words (ties broken by generator order).  Every backend
answers one primitive, mul(a, b), on indices or integer arrays of them,
broadcasting like numpy indexing: a dense table (up to TABLE_LIMIT elements)
is table[a, b]; a permutation group is an N x degree small-int array plus a
short base, the first points whose images separate all N elements, and a*b is
found by its base images among the sorted base keys; a direct product works
componentwise on a1 * |G2| + a2; a quotient multiplies coset representatives
in its parent.  Whole-group data are numpy forms over mul, except that on a
table (mostly tiny) subgroup closures and classes walk element by element.
Checked tables have their associativity verified in full by Light's test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ClosureTooLarge, InternalInconsistency, NotNormal, TrivialGroup
from .ntheory import is_prime

TABLE_LIMIT = 4096
ELEMENT_CAP = 50_000
SUBGROUP_LATTICE_LIMIT = 200
# entries per temporary array in blocked broadcasts
_BLOCK = 1 << 14


def _keys(rows: np.ndarray, degree: int) -> np.ndarray:
    """Exact sort keys of rows of points 0..degree-1 (the last axis): packed
    into int64 while degree**width < 2**63, else the rows' bytes as void."""
    width = rows.shape[-1]
    if degree ** width < 1 << 63:
        return rows @ degree ** np.arange(width, dtype=np.int64)
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, width * rows.itemsize)))[..., 0]


def _base(perms: np.ndarray) -> list[int]:
    """The first points, in point order, whose images separate all rows;
    a point that separates no more rows than the earlier ones is skipped."""
    n, degree = perms.shape
    labels = np.zeros(n, dtype=np.int64)
    base: list[int] = []
    parts = 1
    for x in range(degree):
        if parts == n:
            break
        values, labels = np.unique(labels * degree + perms[:, x], return_inverse=True)
        if len(values) > parts:
            base.append(x)
            parts = len(values)
    return base


class _Backend:
    """mul(a, b) over indices 0..order-1 and arrays of them; inverse[a]."""

    order: int
    inverse: np.ndarray
    table: Optional[np.ndarray] = None


class TableBackend(_Backend):
    def __init__(self, table: np.ndarray):
        self.order = table.shape[0]
        self.table = table
        # table[a, b], read through one flat index: faster for broadcast arrays
        self.flat = table.ravel()
        # inverse of a is the unique b with table[a, b] == 0
        self.inverse = np.argmin(table, axis=1)

    def mul(self, a, b):
        return self.flat[a * self.order + b]


class PermBackend(_Backend):
    """Elements as the rows of an N x degree array, found by base images."""

    def __init__(self, perms: np.ndarray):
        self.order, self.degree = perms.shape
        self.perms = perms
        self.base = _base(perms)
        keys = _keys(perms[:, self.base], self.degree)
        self.sorter = np.argsort(keys)
        self.keys = keys[self.sorter]
        inverse = np.empty_like(perms)
        inverse[np.arange(self.order)[:, None], perms] = np.arange(
            self.degree, dtype=perms.dtype)
        self.inverse = self.index(inverse[:, self.base])

    def index(self, images: np.ndarray) -> np.ndarray:
        """The elements with the given base images (last axis)."""
        keys = _keys(images, self.degree)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.order - 1)
        if not np.all(self.keys[pos] == keys):
            raise InternalInconsistency("base images of no element of the group")
        return self.sorter[pos]

    def mul(self, a, b):
        # (a*b)(x) = a(b(x)), read on the base points
        b_images = self.perms[np.asarray(b)[..., None], self.base]
        return self.index(self.perms[np.asarray(a)[..., None], b_images])


class PairBackend(_Backend):
    """Direct product backend: index = a1 * |G2| + a2, componentwise product."""

    def __init__(self, g1: "FiniteGroup", g2: "FiniteGroup"):
        self.g1 = g1.backend
        self.g2 = g2.backend
        self.n2 = g2.order
        self.order = g1.order * g2.order
        self.inverse = (self.g1.inverse[:, None] * self.n2 + self.g2.inverse).ravel()

    def mul(self, a, b):
        a1, a2 = np.divmod(a, self.n2)
        b1, b2 = np.divmod(b, self.n2)
        return self.g1.mul(a1, b1) * self.n2 + self.g2.mul(a2, b2)


class QuotientBackend(_Backend):
    """Cosets indexed by their representatives reps; proj maps the parent's
    elements to coset indices."""

    def __init__(self, parent: "FiniteGroup", proj: np.ndarray, reps: np.ndarray):
        self.parent = parent.backend
        self.proj = proj
        self.reps = reps
        self.order = len(reps)
        self.inverse = proj[self.parent.inverse[reps]]

    def mul(self, a, b):
        return self.proj[self.parent.mul(self.reps[a], self.reps[b])]


def _products(mul: Callable, elems: np.ndarray) -> np.ndarray:
    """The array of mul(x, y) for x, y in elems, built in row blocks."""
    n = len(elems)
    out = np.empty((n, n), dtype=np.int32)
    step = max(1, _BLOCK // max(n, 1))
    for lo in range(0, n, step):
        out[lo:lo + step] = mul(elems[lo:lo + step, None], elems[None, :])
    return out


class FiniteGroup:
    """Finite group with elements indexed 0..order-1, identity at 0."""

    def __init__(self, backend: _Backend, generators: Sequence[int], name: str = "",
                 perms: Optional[np.ndarray] = None, check: bool = True):
        self.backend = backend
        self.order = backend.order
        self.generators = list(generators)
        self.name = name
        # natural permutation action (order x degree), when the group came
        # from permutations
        self.perms = perms
        # (g1, g2) when built as a direct product, else None
        self.factors: Optional[tuple] = None
        self._classes: Optional[list[frozenset]] = None
        self._class_map: Optional[list[int]] = None
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
        return int(self.backend.mul(a, b))

    def inv(self, a: int) -> int:
        return int(self.backend.inverse[a])

    def conj(self, g: int, x: int) -> int:
        """g^-1 x g."""
        return self.mult(self.mult(self.inv(g), x), g)

    def commutator(self, a: int, b: int) -> int:
        return self.mult(self.mult(self.inv(a), self.inv(b)), self.mult(a, b))

    def right_column(self, h: int) -> np.ndarray:
        """x*h for every element x, indexed by x."""
        return self.backend.mul(np.arange(self.order), h)

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
        t = self.backend.table
        if t is None:
            for g in (0, n - 1, n // 2):
                if self.mult(0, g) != g or self.mult(g, 0) != g:
                    raise InternalInconsistency("identity axiom failed")
                if self.mult(g, self.inv(g)) != 0:
                    raise InternalInconsistency("inverse axiom failed")
            return
        ident = np.arange(n)
        if not (np.array_equal(t[0], ident) and np.array_equal(t[:, 0], ident)):
            raise InternalInconsistency("identity axiom failed")
        if np.any(t[ident, self.backend.inverse] != 0):
            raise InternalInconsistency("inverse axiom failed")
        if len(self.subgroup_closure(self.generators)) != n:
            raise InternalInconsistency("generators do not generate the table")
        step = max(1, _BLOCK // n)
        for s in self.generators:
            ts = t[s]
            for lo in range(0, n, step):
                rows = t[lo:lo + step]
                if not np.array_equal(t[rows[:, s]], rows[:, ts]):
                    raise InternalInconsistency("associativity failed")

    # -- element data ---------------------------------------------------

    def element_order(self, g: int) -> int:
        return self.element_orders()[g]

    def element_orders(self) -> list[int]:
        """Order of every element: g^k is multiplied by g until it is 1."""
        if self._orders is None:
            every = np.arange(self.order)
            orders = np.ones(self.order, dtype=np.int64)
            power, alive = every, every != 0
            while alive.any():
                orders += alive
                power = self.backend.mul(power, every)
                alive &= power != 0
            self._orders = orders.tolist()
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
        """Partition into conjugation orbits, ordered by minimal element.

        A table walks each orbit under conjugation by the generators; any
        other backend takes the least unplaced element x and all of its
        conjugates g^-1 x g in one column.
        """
        if self._classes is None:
            classes, t = [], self.backend.table
            if t is not None:
                pairs = [(int(self.backend.inverse[g]), g) for g in self.generators]
                placed: set = set()
                for start in range(self.order):
                    if start in placed:
                        continue
                    orbit, queue = {start}, [start]
                    for x in queue:
                        for gi, g in pairs:
                            y = t.item(t.item(gi, x), g)
                            if y not in orbit:
                                orbit.add(y)
                                queue.append(y)
                    placed |= orbit
                    classes.append(frozenset(orbit))
            else:
                every = np.arange(self.order)
                unplaced = np.ones(self.order, dtype=bool)
                while unplaced.any():
                    x = int(np.argmax(unplaced))
                    members = np.unique(self.backend.mul(
                        self.backend.mul(self.backend.inverse, x), every))
                    unplaced[members] = False
                    classes.append(frozenset(members.tolist()))
            self._classes = classes
        return self._classes

    def class_map(self) -> list[int]:
        """Class index of every element (memoized; callers must not modify it)."""
        if self._class_map is None:
            cm = [0] * self.order
            for i, c in enumerate(self.conjugacy_classes()):
                for g in c:
                    cm[g] = i
            self._class_map = cm
        return self._class_map

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(self.mult(a, b) == self.mult(b, a) for a in gens for b in gens)

    # -- structural subgroups -------------------------------------------

    def center(self) -> "Subgroup":
        if self._center is None:
            every = np.arange(self.order)[:, None]
            gens = np.array(self.generators, dtype=np.int64)
            central = (self.backend.mul(every, gens) == self.backend.mul(gens, every)).all(axis=1)
            self._center = Subgroup(
                self, frozenset(np.flatnonzero(central).tolist()), normal=True)
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
        """Elements of the subgroup generated by gens (BFS over the Cayley
        graph): element by element on a table, layer by layer otherwise."""
        gens = [g for g in gens if g != 0]
        t = self.backend.table
        if t is not None:
            seen, queue = {0}, [0]
            for x in queue:
                for g in gens:
                    y = t.item(x, g)
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            return frozenset(seen)
        step = np.array(gens, dtype=np.int64)
        reached = np.zeros(self.order, dtype=bool)
        reached[0] = True
        layer = np.zeros(1, dtype=np.int64)
        while layer.size:
            nxt = np.unique(self.backend.mul(layer[:, None], step[None, :]))
            layer = nxt[~reached[nxt]]
            reached[layer] = True
        return frozenset(np.flatnonzero(reached).tolist())

    def normal_closure(self, seed: Iterable[int]) -> "Subgroup":
        """Smallest normal subgroup containing the seed elements."""
        gens = sorted(set(g for g in seed if g != 0))
        if not gens:
            return Subgroup(self, frozenset([0]), normal=True, gens=[])
        while True:
            elems = self.subgroup_closure(gens)
            new = next((c for h in gens for g in self.generators
                        if (c := self.conj(g, h)) not in elems), None)
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
            minimal = [n for n in closures
                       if not any(m.elements < n.elements for m in closures)]
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
        """G/N with each coset xN indexed by the rank of its least element."""
        if n.parent is not self:
            raise NotNormal("subgroup belongs to a different parent")
        if not n.is_normal():
            raise NotNormal("subgroup is not normal")
        every = np.arange(self.order)
        nel = np.array(sorted(n.elements), dtype=np.int64)
        least = every
        step = max(1, _BLOCK // self.order)
        for lo in range(0, len(nel), step):
            cosets = self.backend.mul(every[:, None], nel[None, lo:lo + step])
            least = np.minimum(least, cosets.min(axis=1))
        reps, proj = np.unique(least, return_inverse=True)
        backend = QuotientBackend(self, proj, reps)
        qgens = []
        for g in self.generators:
            img = int(proj[g])
            if img != 0 and img not in qgens:
                qgens.append(img)
        target = FiniteGroup(backend, qgens, name=f"{self.name}/N" if self.name else "")
        if len(reps) <= TABLE_LIMIT:
            target = _tabulate(target)
        return QuotientMap(self, target, proj.tolist())

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
                g.update(json.dumps(self.perms[:1].tolist()).encode())
            return f"{self._fingerprint}:{g.hexdigest()[:8]}"
        return self._fingerprint

    def presentation_digest(self) -> str:
        """Hash of the generators' permutations or, for groups without a
        permutation action, of their columns x -> x*s under mul.  Either
        determines the group together with its indexing."""
        h = hashlib.sha256(json.dumps(self.generators).encode())
        if self.perms is not None:
            h.update(json.dumps(self.perms[self.generators].tolist()).encode())
        else:
            gens = np.array(self.generators, dtype=np.int64)
            columns = self.backend.mul(np.arange(self.order)[:, None], gens[None, :])
            h.update(np.ascontiguousarray(columns, dtype="<i8").tobytes())
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
        elems = np.array(sorted(self.elements), dtype=np.int64)
        pos = np.empty(self.parent.order, dtype=np.int32)
        pos[elems] = np.arange(len(elems), dtype=np.int32)
        mul = self.parent.backend.mul
        table = _products(lambda a, b: pos[mul(a, b)], elems)
        gens = pos[self.generating_set()].tolist()
        g = FiniteGroup(TableBackend(table), gens, check=False)
        return g, elems.tolist()

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
    """Replace a product or quotient backend by a dense table (small orders only)."""
    table = _products(g.backend.mul, np.arange(g.order))
    return FiniteGroup(TableBackend(table), g.generators, name=g.name, check=False)


def from_generators(perms: Sequence[Sequence[int]], degree: Optional[int] = None,
                    name: str = "") -> FiniteGroup:
    """Group generated by permutations, indexed by breadth-first closure.

    The closure runs one layer at a time: every element of a layer times
    every generator, in that order, with the first occurrence of each new
    permutation appended, which is the order of an element-by-element BFS.
    Up to TABLE_LIMIT elements the multiplication table is assembled from
    the closure's Cayley columns right[x, k] = x*g_k: each element j other
    than the identity was first reached as j = p*g_k from an earlier p, and
    a*j = (a*p)*g_k, so column j of the table is right[column p, k].
    """
    if degree is None:
        degree = max((len(p) for p in perms), default=1)
    for p in perms:
        if sorted(p) != list(range(degree)):
            raise InternalInconsistency(f"not a permutation of 0..{degree-1}: {p}")
    dtype = np.int16 if degree <= 1 << 15 else np.int32
    gens = np.array(perms, dtype=dtype).reshape(len(perms), degree)
    m = len(gens)
    layers = [np.arange(degree, dtype=dtype)[None, :]]
    keys = [_keys(layers[0], degree)]   # of each layer's elements
    products = []                       # keys of each layer times each generator
    known = keys[0]                     # sorted keys of all elements so far
    n = 1
    while len(layers[-1]):
        # row i * m + k is layer[i] * gens[k], that is layer[i][gens[k][x]]
        step = layers[-1][:, gens].reshape(-1, degree)
        step_keys = _keys(step, degree)
        pos = np.minimum(known.searchsorted(step_keys), len(known) - 1)
        miss = np.flatnonzero(known[pos] != step_keys)
        new_keys, first = np.unique(step_keys[miss], return_index=True)
        n += len(first)
        if n > ELEMENT_CAP:
            raise ClosureTooLarge(f"closure exceeds cap {ELEMENT_CAP}")
        found = miss[np.sort(first)]
        layers.append(step[found])
        keys.append(step_keys[found])
        products.append(step_keys)
        known = np.sort(np.concatenate([known, new_keys]))
    perms_array = np.concatenate(layers)
    index = np.argsort(np.concatenate(keys))
    right = index[known.searchsorted(np.concatenate(products))].reshape(n, m)
    if n > TABLE_LIMIT:
        return FiniteGroup(PermBackend(perms_array), right[0].tolist(), name=name,
                           perms=perms_array)
    # the product that first reached j, in BFS order, is its origin p * g_k
    values, first = np.unique(right, return_index=True)
    origin = first[values != 0]
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n, dtype=np.int32)
    lo = 1
    for layer in layers[1:-1]:
        hi = lo + len(layer)
        parents, ks = np.divmod(origin[lo - 1:hi - 1], m)
        table[:, lo:hi] = right[table[:, parents], ks]
        lo = hi
    return FiniteGroup(TableBackend(table), right[0].tolist(), name=name,
                       perms=perms_array)


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
    """Every subgroup of a small group, bottom-up: each subgroup found is
    closed again with one more element, from its generators."""
    if g.order > SUBGROUP_LATTICE_LIMIT:
        raise ClosureTooLarge(
            f"subgroup lattice limited to order {SUBGROUP_LATTICE_LIMIT}")
    found = {frozenset([0]): []}
    frontier = [frozenset([0])]
    while frontier:
        nxt = []
        for h in frontier:
            for x in g.elements():
                if x in h:
                    continue
                new = g.subgroup_closure(found[h] + [x])
                if new not in found:
                    found[new] = found[h] + [x]
                    nxt.append(new)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_two_transitive(g: FiniteGroup) -> bool:
    """Whether the natural permutation action is 2-transitive (it is
    faithful: the elements are distinct permutations).

    Only meaningful for groups built from permutations; returns False otherwise.
    """
    if g.perms is None:
        return False
    degree = g.perms.shape[1]
    if degree < 2 or g.order < degree * (degree - 1):
        return False
    # orbit of the ordered pair (0, 1), coded a * degree + b, must be all
    # ordered pairs
    gens = g.perms[g.generators].astype(np.int64)
    seen = np.zeros(degree * degree, dtype=bool)
    seen[1] = True
    layer = np.array([1])
    while layer.size:
        a, b = np.divmod(layer, degree)
        nxt = np.unique(gens[:, a] * degree + gens[:, b])
        layer = nxt[~seen[nxt]]
        seen[layer] = True
    return int(seen.sum()) == degree * (degree - 1)
