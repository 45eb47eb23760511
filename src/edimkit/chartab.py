"""Exact complex character tables via class-sum matrices over a prime field.

The class-multiplication constants give commuting integer matrices; their
simultaneous eigenvectors over F_q (q = 1 mod exp G, q > 2 sqrt |G|) determine
the characters mod q.  The constants are counted with one `np.bincount` per
class representative r_k, over the column u -> u r_k.  The split runs on int64
arrays with the modular eigenspaces of `snf`: each subspace is kept in
reduced row echelon form, so the coordinates of an image are its entries at
the pivot columns and closure under a class matrix is one array identity;
each eigenspace of the coordinate matrix is a smaller subspace, until all
are lines.  A discrete Fourier transform on the powers of each class
representative g_k, one matrix product per class order, gives the
eigenvalue multiplicities m[k][i, t] of g_k in chi_i, so chi_i(g_k) =
sum_t m[k][i, t] zeta_ord(g_k)^t.  They lie in [0, deg chi_i], below q, so
their residues are exact.  These non-negative integers are the stored table.

Values are written in the tensor basis of Q(zeta_e) that `cyclo` uses, with
integer coefficients: for each class order o one integer matrix B holds in
row t the expansion of zeta_e^(t e/o), so a class's coefficients are
m[k] @ B (`CharacterTable.tensor_coefficients`, computed once per table).
Rows are sorted by these integers, and `--full` output is written from
them.

A direct product G = G1 x G2 (`g.factors` set) gets its table from its
factors' tables instead, since Irr(G1 x G2) = {chi_1 x chi_2} (Isaacs,
"Character Theory of Finite Groups", Thm 4.21).  Its elements are indexed
a1 |G2| + a2, and its classes are the products C_k1 x C_k2; classes are
ordered by their least element, which is r_k1 |G2| + r_k2, so class
(k1, k2) has index k1 n2 + k2, n2 the number of classes of G2 (checked: the
representatives must agree, or InternalInconsistency is raised).  If g_k1 has order o1 and g_k2 order o2,
the eigenvalue zeta_o1^a of g_k1 in chi_1 times zeta_o2^b of g_k2 in chi_2
is zeta_o^(a o/o1 + b o/o2), o = lcm(o1, o2), so the multiplicities of
(g_k1, g_k2) in chi_1 x chi_2 are the convolution of the factors'
multiplicities on Z/o.  Factor tables come from the factor's own certified
table when the group object holds one and are computed (recursively, for
(A x B) x C) otherwise; they are never read from or written to the disk
cache, so a product still writes one cache file.  Rows are sorted once, on
the table that is returned, by the same key for both methods, so a product
table equals the one Dixon-Schneider would give.  A wrong factor table
cannot reach the output: the product table itself is certified below, and
that certificate proves the product's orthogonality relations exactly,
whatever the factors' tables were.

Every table is certified before use, whether computed or reloaded from the
cache: `CharacterTable.verify_orthogonality` checks both orthogonality
relations in int64 matrix arithmetic at every primitive e-th root of unity
modulo primes q = 1 (mod e) whose product exceeds a bound on every residual,
which proves them exactly (the argument is in its docstring).  Cache files
are keyed on the presentation; a reloaded table that does not carry the
group's own class data or fails the certificate is recomputed and rewritten.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .abelian import AbelianStructure, structure
from .cyclo import _expansion
from .errors import (
    BackendLimit,
    InternalInconsistency,
    NotCentral,
    NonScalar,
    OutOfScope,
)
from .fields import FieldDescriptor, supports_splitting
from .groups import FiniteGroup, Subgroup
from .ntheory import factorize, is_prime, split_prime
from .snf import eigenspaces_mod

CLASS_LIMIT = 120


# ---------------------------------------------------------------------------
# prime-field helpers


def _certificate_primes(e: int, width: int, bound: int) -> list[int]:
    """Primes q = 1 (mod e) with width * q^2 < 2^63 whose product exceeds bound.

    The largest such primes are taken first, so as few as possible are used.
    """
    q = math.isqrt((2 ** 63 - 1) // width)
    q -= (q - 1) % e
    primes: list[int] = []
    product = 1
    while product <= bound:
        if q < 2:
            raise InternalInconsistency(f"too few primes = 1 mod {e} below 2^63")
        if is_prime(q):
            primes.append(q)
            product *= q
        q -= e
    return primes


def root_powers(e: int, q: int) -> np.ndarray:
    """z^t mod q for t < e, z a primitive e-th root of unity in F_q (q = 1
    mod e): z = x^((q-1)/e) for the least x >= 1 with z^(e/p) != 1 for every
    prime p | e.  Only e is factored, never q - 1.

    Which primitive root z is does not matter to any caller: the certificate
    checks every unit power of it, restriction multiplicities are rational,
    and a Dixon-Schneider table made with another root has its rows permuted
    by a Galois twist, which `_sorted_rows` undoes.
    """
    primes = [p for p, _ in factorize(e)]
    x = 1
    while True:
        z = pow(x, (q - 1) // e, q)
        if all(pow(z, e // p, q) != 1 for p in primes):
            break
        x += 1
    powers = np.ones(e, dtype=np.int64)
    step, zk = 1, z     # powers[:step] is done and zk = z^step
    while step < e:
        powers[step:2 * step] = powers[:min(step, e - step)] * zk % q
        step, zk = 2 * step, zk * zk % q
    return powers


@lru_cache(maxsize=None)
def _tensor_matrix(e: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, b): row t of b holds the coefficients of zeta_e^(t e/order) in
    the tensor basis of Q(zeta_e) that `cyclo` uses, at the basis keys that
    any row reaches (ascending)."""
    b = np.zeros((order, e), dtype=np.int64)
    for t in range(order):
        sign, keys = _expansion(e, t * (e // order))
        b[t, list(keys)] += sign
    keys = np.flatnonzero(b.any(axis=0))
    b = b[:, keys]
    keys.flags.writeable = b.flags.writeable = False
    return keys, b


def _classes_by_order(orders: list[int]) -> dict[int, list[int]]:
    """The classes k grouped by their order orders[k]."""
    out: dict = {}
    for k, o in enumerate(orders):
        out.setdefault(o, []).append(k)
    return out


def _tensor_coefficients(e: int, mults: list[np.ndarray]) -> tuple:
    """(keys, classes, c): chi_i(g_k) = sum_j c[i, j] zeta_e^keys[j] over the
    columns j with classes[j] = k, in the tensor basis; class k's columns
    are multiplicities[k] @ b for b from `_tensor_matrix`, keys ascending."""
    parts = [_tensor_matrix(e, m.shape[1]) for m in mults]
    keys = np.concatenate([k for k, _ in parts])
    classes = np.repeat(np.arange(len(mults)), [len(k) for k, _ in parts])
    return keys, classes, np.hstack([m @ b for m, (_, b) in zip(mults, parts)])


def _require_equal(got: np.ndarray, expect: np.ndarray, relation: str,
                   what: str) -> None:
    bad = np.argwhere(got != expect[None])
    if len(bad):
        _, a, b = bad[0]
        raise InternalInconsistency(
            f"{relation} orthogonality failed for {what} {min(a, b)},{max(a, b)}")


# ---------------------------------------------------------------------------
# table types


@dataclass
class CharacterTable:
    group: FiniteGroup
    conductor: int
    class_reps: list[int]
    class_sizes: list[int]
    inverse_class: list[int]
    degrees: list[int]
    # per class k, rows x ord(g_k) eigenvalue multiplicities:
    # chi_i(g_k) = sum_t multiplicities[k][i, t] zeta_ord(g_k)^t
    multiplicities: list[np.ndarray]
    # `restriction_data` per subgroup element set
    _restrictions: dict = field(default_factory=dict, repr=False, compare=False)
    # `tensor_coefficients`, set by `_sorted_rows` or on first use
    _coefficients: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)

    def values_mod(self, q: int, units: list[int]) -> np.ndarray:
        """x[r, i, k] = chi_i(g_k) mod q under zeta_e -> z^units[r], z from
        `root_powers` (q = 1 mod e)."""
        e = self.conductor
        n = self.n_classes
        powers = root_powers(e, q)
        x = np.empty((len(units), n, n), dtype=np.int64)
        mults = self.multiplicities
        for order, ks in _classes_by_order([m.shape[1] for m in mults]).items():
            exps = np.outer(np.arange(order) * (e // order), units) % e
            m = np.stack([mults[k] for k in ks], axis=1) % q
            x[:, :, ks] = (m @ powers[exps] % q).transpose(2, 0, 1)
        return x

    def tensor_coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, classes, c) with chi_i(g_k) = sum_j c[i, j] zeta_e^keys[j]
        over the columns j with classes[j] = k, in the tensor basis of
        Q(zeta_e) that `cyclo` uses; computed once per table."""
        if self._coefficients is None:
            self._coefficients = _tensor_coefficients(self.conductor,
                                                      self.multiplicities)
        return self._coefficients

    def verify_orthogonality(self) -> None:
        """Certify both orthogonality relations exactly, by arithmetic mod primes.

        For every class k the multiplicities must form a rows x ord(g_k)
        array of non-negative integers, ord(g_k) | e, whose rows sum to the
        degrees.  A value sum_t m_t zeta^t is then an algebraic integer in
        Z[zeta_e], and each of its Galois conjugates is a sum of d_i roots of
        unity, of absolute value at most D, the largest degree.  The class
        sizes must be positive and sum to |G|, so n <= |G|.  Every row
        residual sum_k |C_k| chi_i(g_k) chi_j(g_k^-1) - delta_ij |G| and
        every column residual sum_i chi_i(g_k) chi_i(g_l^-1) - delta_kl
        |G|/|C_k| is then an element R of Z[zeta_e] whose conjugates are
        bounded by B = |G| (D^2 + 1).

        The primes q are = 1 (mod e) with product M > B.  Such q is
        unramified in Z[zeta_e] and splits into phi(e) primes, one for each
        primitive e-th root of unity w in F_q, with residue map zeta_e -> w.
        Each relation is checked as a matrix identity over F_q at every q
        and every w.  So R lies in every prime above every q, hence in
        q Z[zeta_e] for each q and in M Z[zeta_e].  R/M is then an algebraic
        integer whose conjugates all have absolute value B/M < 1; its norm
        is a rational integer of absolute value < 1, hence 0, so R = 0.
        Each q has W q^2 < 2^63, where W is at least n and every ord(g_k),
        and the multiplicities are reduced mod q first, so no int64 product
        or sum below can overflow.
        """
        n = self.n_classes
        order = self.group.order
        e = self.conductor
        sizes = self.class_sizes
        inv = self.inverse_class
        mults = self.multiplicities
        if len(sizes) != n or len(inv) != n or len(self.degrees) != n or \
                len(mults) != n:
            raise InternalInconsistency("table dimensions do not match the classes")
        if any(s < 1 for s in sizes) or sum(sizes) != order or \
                any(order % s for s in sizes):
            raise InternalInconsistency("class sizes do not partition the group order")
        if sorted(inv) != list(range(n)):
            raise InternalInconsistency("inverse classes are not a permutation")
        if sum(d * d for d in self.degrees) != order:
            raise InternalInconsistency("degree squares do not sum to group order")
        degrees = np.array(self.degrees)[:, None]
        for k, m in enumerate(mults):
            if m.shape[0] != n or m.shape[1] == 0 or e % m.shape[1]:
                raise InternalInconsistency(f"multiplicities of class {k} have shape {m.shape}")
        widths = [m.shape[1] for m in mults]
        starts = np.cumsum(widths) - widths
        counts = np.hstack(mults)
        bad = np.add.reduceat((counts < 0) | (counts > degrees), starts, axis=1) | \
            (np.add.reduceat(counts, starts, axis=1) != degrees)
        if bad.any():
            raise InternalInconsistency(
                f"multiplicities of class {bad.any(axis=0).argmax()} do not count "
                "the degrees' eigenvalues")

        units = [j for j in range(1, e + 1) if math.gcd(j, e) == 1]
        width = max(n, *(m.shape[1] for m in mults))
        big = max(self.degrees)
        sizes = np.array(sizes, dtype=np.int64)
        centralizers = np.diag(order // sizes)
        eye = np.eye(n, dtype=np.int64)
        for q in _certificate_primes(e, width, order * (big * big + 1)):
            x = self.values_mod(q, units)  # x[r] is the table at the r-th root
            x_inv = x[:, :, inv]
            rows = (x * sizes % q) @ x_inv.transpose(0, 2, 1) % q
            _require_equal(rows, order * eye % q, "row", "rows")
            cols = x.transpose(0, 2, 1) @ x_inv % q
            _require_equal(cols, centralizers % q, "column", "classes")

    def serialize(self) -> dict:
        return {
            "conductor": self.conductor,
            "class_reps": self.class_reps,
            "class_sizes": self.class_sizes,
            "inverse_class": self.inverse_class,
            "multiplicities": [m.tolist() for m in self.multiplicities],
        }

    @staticmethod
    def deserialize(group: FiniteGroup, data: dict) -> "CharacterTable":
        """The table in data, which must be built for group's own exponent
        and class data (raises ValueError otherwise)."""
        known = [group.exponent(), *_class_data(group)]
        if [data["conductor"], data["class_reps"], data["class_sizes"],
                data["inverse_class"]] != known:
            raise ValueError("the table was built for other class data")
        mults = [np.array(m) for m in data["multiplicities"]]
        if not mults or any(m.ndim != 2 or m.dtype.kind != "i" for m in mults):
            raise ValueError("multiplicities are not integer matrices")
        return CharacterTable(group, *known, [int(d) for d in mults[0].sum(axis=1)],
                              mults)


# ---------------------------------------------------------------------------
# construction


def character_table(g: FiniteGroup, cache_dir: Optional[str] = None,
                    use_cache: bool = True) -> CharacterTable:
    """The certified character table of g.

    The default call (no cache_dir, cache on) keeps its table on g, so the
    disk cache is read and the table certified once per group object; an
    explicit cache_dir or use_cache=False neither reads nor sets that memo.
    """
    memo = cache_dir is None and use_cache
    if memo and g._table is not None:
        return g._table
    n = len(g.conjugacy_classes().reps)
    if n > CLASS_LIMIT:
        raise BackendLimit(f"{n} classes exceed the limit {CLASS_LIMIT}")

    table = _cache_load(g, cache_dir) if use_cache else None
    if table is None:
        table = _sorted_rows(_compute(g))
        table.verify_orthogonality()
        if use_cache:
            _cache_store(g, table, cache_dir)
    if memo:
        g._table = table
    return table


def _class_data(g: FiniteGroup) -> tuple[list[int], list[int], list[int]]:
    """Class representatives (least elements), class sizes and inverse classes."""
    c = g.conjugacy_classes()
    return (c.reps.tolist(), c.sizes.tolist(),
            c.index[g.backend.inverse[c.reps]].tolist())


def _sorted_rows(t: CharacterTable) -> CharacterTable:
    """t with its rows by degree, then by the values' tensor-basis
    coefficients: per class, the sparse list of (key, coefficient) pairs,
    compared as lists.

    Each class's list is written as its pairs followed by -1, padded with
    zeros to one width per class.  Keys are non-negative, so where two rows
    first differ this flat encoding compares as the lists do; two equal lists
    have equal padding, so the next class's blocks stay aligned.  All classes
    are encoded at once.
    """
    n = t.n_classes
    keys, classes, c = t.tensor_coefficients()
    starts = np.flatnonzero(np.diff(classes, prepend=-1))
    nonzero = c != 0
    ranks = np.cumsum(nonzero, axis=1)      # nonzeros up to each column
    before = ranks[:, starts] - nonzero[:, starts]
    counts = np.add.reduceat(nonzero, starts, axis=1)   # per row and class
    blocks = 2 * counts.max(axis=0) + 1
    offsets = 1 + np.cumsum(blocks) - blocks
    flat = np.zeros((n, 1 + blocks.sum()), dtype=np.int64)
    flat[:, 0] = t.degrees
    i, j = np.nonzero(nonzero)
    at = offsets[classes[j]] + 2 * (ranks[i, j] - 1 - before[i, classes[j]])
    flat[i, at] = keys[j]
    flat[i, at + 1] = c[i, j]
    flat[np.arange(n)[:, None], offsets + 2 * counts] = -1
    perm = np.lexsort(flat.T[::-1])
    return CharacterTable(t.group, t.conductor, t.class_reps, t.class_sizes,
                          t.inverse_class, [t.degrees[i] for i in perm],
                          [m[perm] for m in t.multiplicities],
                          _coefficients=(keys, classes, c[perm]))


def _compute(g: FiniteGroup) -> CharacterTable:
    """g's table, rows in no fixed order and not yet certified: from its
    factors' tables when g is a direct product, else by Dixon-Schneider.

    A factor's certified table is reused when the group object holds one;
    otherwise it is computed here, and neither cached nor memoized.
    """
    if g.factors is None:
        return _dixon_schneider(g)
    t1, t2 = (f._table if f._table is not None else _compute(f) for f in g.factors)
    return _product_table(g, t1, t2)


def _product_table(g: FiniteGroup, t1: CharacterTable,
                   t2: CharacterTable) -> CharacterTable:
    """The table of g = G1 x G2 from tables t1 of G1 and t2 of G2.

    Row (i1, i2) is chi_i1 x chi_i2 and class (k1, k2) is C_k1 x C_k2, index
    k1 n2 + k2 for n2 classes of G2, whose least element is r_k1 |G2| + r_k2
    (checked).  For o = lcm(o1, o2), the eigenvalue zeta_o1^a x zeta_o2^b of
    (g_k1, g_k2) is zeta_o^(a o/o1 + b o/o2), so the multiplicities are the
    convolution of the factors' on Z/o.
    """
    reps, sizes, inv_class = _class_data(g)
    order2 = g.factors[1].order
    if reps != [r1 * order2 + r2 for r1 in t1.class_reps for r2 in t2.class_reps]:
        raise InternalInconsistency("product classes do not follow the factors' classes")
    mults = []
    for m1 in t1.multiplicities:
        o1 = m1.shape[1]
        for m2 in t2.multiplicities:
            o2 = m2.shape[1]
            outer = (m1[:, None, :, None] * m2[None, :, None, :]).reshape(-1, o1 * o2)
            mults.append(outer @ _convolution(o1, o2))
    degrees = np.outer(t1.degrees, t2.degrees).ravel().tolist()
    return CharacterTable(g, g.exponent(), reps, sizes, inv_class, degrees, mults)


@lru_cache(maxsize=None)
def _convolution(o1: int, o2: int) -> np.ndarray:
    """The 0/1 matrix of (a, b) -> a o/o1 + b o/o2 mod o, o = lcm(o1, o2):
    row a o2 + b has its 1 in that column."""
    o = math.lcm(o1, o2)
    ts = (np.arange(o1)[:, None] * (o // o1) + np.arange(o2) * (o // o2)) % o
    out = np.zeros((o1 * o2, o), dtype=np.int64)
    out[np.arange(o1 * o2), ts.ravel()] = 1
    out.flags.writeable = False
    return out


def _dixon_schneider(g: FiniteGroup) -> CharacterTable:
    reps, sizes, inv_class = _class_data(g)
    n = len(reps)
    cmap = g.conjugacy_classes().index
    e = g.exponent()
    order = g.order
    # q > 2 sqrt |G| determines degrees by their residues, q > n makes the
    # characteristic polynomials exact, and max(e, n) q^2 < 2^63 keeps every
    # product of the split and the transform in int64
    q = split_prime(e, max(2 * math.isqrt(order) + 1, n + 1))
    if max(e, n) * q * q >= 2 ** 63:
        raise BackendLimit(f"Dixon prime {q} is too large for int64 arithmetic")

    # common eigenlines omega of the class matrices, scaled to omega_0 = 1:
    # omega_k = |C_k| chi(g_k)/d mod q
    spaces = _full_split(_class_constants(g, reps, cmap) % q, q)
    if len(spaces) != n:
        raise InternalInconsistency("failed to split the class algebra into lines")
    omega = np.vstack(spaces)
    if (omega[:, 0] != 1).any():
        raise InternalInconsistency("eigenvector vanishes on the identity class")
    size_mod = np.array(sizes) % q
    theta = omega * [pow(int(s), -1, q) for s in size_mod] % q
    norms = (theta * size_mod % q * theta[:, inv_class] % q).sum(axis=1) % q
    ts = np.arange(1, 2 * math.isqrt(order) + 2)
    squares = ts * ts % q
    degrees = []
    for s in norms:
        d = ts[squares == order * pow(int(s), -1, q) % q]
        if not len(d):
            raise InternalInconsistency("no admissible degree for eigenvector")
        degrees.append(int(d[0]))
    degrees_check = sum(d * d for d in degrees)
    if degrees_check != order:
        raise InternalInconsistency(
            f"degree squares sum to {degrees_check}, expected {order}")

    # eigenvalue multiplicities: m_t = (1/d_k) sum_s chi(g_k^s) zeta^(-st),
    # the discrete Fourier transform of chi on the powers of g_k, all mod q
    degrees = np.array(degrees)
    chi = degrees[:, None] * theta % q
    powers = root_powers(e, q)
    orders = [g.element_order(r) for r in reps]
    top = max(orders)
    cyclic = np.zeros((top, n), dtype=np.int64)     # cyclic[s, k] = g_k^s
    step, t = np.array(reps), 1                     # step = g_k^t
    while t < top:
        cyclic[t:2 * t] = g.backend.mul(cyclic[:min(t, top - t)], step)
        step, t = g.backend.mul(step, step), 2 * t
    mults: list = [None] * n
    for dk, ks in _classes_by_order(orders).items():
        ts = np.arange(dk)
        dft = powers[-np.outer(ts, ts) * (e // dk) % e]
        values = chi[:, cmap[cyclic[:dk, ks]].T].transpose(1, 0, 2)
        m = values @ dft % q * pow(dk, -1, q) % q       # m[i] for class ks[i]
        if (m > degrees[:, None]).any():
            raise InternalInconsistency("eigenvalue multiplicity too large")
        for i, k in enumerate(ks):
            mults[k] = m[i]

    return CharacterTable(g, e, reps, sizes, inv_class, degrees.tolist(), mults)


def _class_constants(g: FiniteGroup, reps: list[int], cmap: np.ndarray) -> np.ndarray:
    """a[i, j, k] = #{(x, y) in C_i x C_j : x y = r_k}, counted as
    #{u : u^-1 in C_i, u r_k in C_j} with one bincount per class rep r_k."""
    n = len(reps)
    inv_cmap = cmap[g.backend.inverse] * n
    a = np.empty((n, n, n), dtype=np.int64)
    for k, rk in enumerate(reps):
        a[:, :, k] = np.bincount(inv_cmap + cmap[g.right_column(rk)],
                                 minlength=n * n).reshape(n, n)
    return a


def _full_split(a: np.ndarray, q: int) -> list[np.ndarray]:
    """Split F_q^n into common eigenspaces of the class matrices a[i] mod q.

    A subspace is the row span of its reduced row echelon form V, so the
    coordinates of a vector of the span are its entries at V's pivot
    columns.  The rows of V a[i]^T must lie in the span, V a[i]^T = C V,
    and the eigenspace of a[i] for lam is then {x V : x C = lam x}.  C is
    diagonalizable, as the class algebra is split semisimple over F_q
    (q = 1 mod e does not divide |G|).  With x in reduced row echelon form,
    so is x V: its entries at V's pivot columns are x.
    """
    n = len(a)
    spaces = [np.eye(n, dtype=np.int64)]
    for b in a[1:]:
        if len(spaces) == n:
            break
        nxt = []
        for basis in spaces:
            if len(basis) == 1:
                nxt.append(basis)
                continue
            images = basis @ b.T % q
            coords = images[:, (basis != 0).argmax(axis=1)]
            if not np.array_equal(coords @ basis % q, images):
                raise InternalInconsistency("class algebra not closed on subspace")
            try:
                nxt.extend(x @ basis % q for x in eigenspaces_mod(coords, q))
            except ValueError:
                raise InternalInconsistency(
                    "class matrix not diagonalizable mod the Dixon prime") from None
        spaces = nxt
    return spaces


# ---------------------------------------------------------------------------
# cache


def cache_directory(cache_dir: Optional[str]) -> str:
    """The table cache: cache_dir if given, else $EDIMKIT_CACHE, else ~/.cache/edimkit."""
    return cache_dir or os.environ.get("EDIMKIT_CACHE") or \
        os.path.join(os.path.expanduser("~"), ".cache", "edimkit")


def _cache_path(g: FiniteGroup, cache_dir: Optional[str]) -> Path:
    """Cache file of g's table, keyed on the presentation itself.

    Class representatives are element indices, so a table is only valid for
    the same indexing, which `presentation_digest` determines.
    """
    key = f"{g.fingerprint()}_{g.presentation_digest()}"
    return Path(cache_directory(cache_dir)) / f"chartab_{key.replace(':', '_')}.json"


def _cache_load(g: FiniteGroup, cache_dir: Optional[str]) -> Optional[CharacterTable]:
    """The cached table of g, or None when absent, unreadable, built for
    other class data than g's own, or failing the certificate."""
    path = _cache_path(g, cache_dir)
    if not path.exists():
        return None
    try:
        with open(path) as fh:
            table = CharacterTable.deserialize(g, json.load(fh))
        table.verify_orthogonality()
    except (OSError, ValueError, KeyError, TypeError, InternalInconsistency):
        return None
    return table


def _cache_store(g: FiniteGroup, table: CharacterTable,
                 cache_dir: Optional[str]) -> None:
    path = _cache_path(g, cache_dir)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(table.serialize()))
        tmp.replace(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# derived queries


def kernel(table: CharacterTable, row: int) -> Subgroup:
    """Elements where the character attains its degree; always a normal subgroup.

    chi(g) = d exactly when all d eigenvalues of g are 1 (a sum of d roots of
    unity has absolute value d only if they are equal).
    """
    g = table.group
    d = table.degrees[row]
    inside = np.array([m[row, 0] == d for m in table.multiplicities])
    elements = np.flatnonzero(inside[g.conjugacy_classes().index])
    return Subgroup(g, frozenset(elements.tolist()), normal=True)


@dataclass
class RestrictionData:
    """Which characters of an abelian normal subgroup appear in which rows."""

    table: CharacterTable
    subgroup: Subgroup
    st: AbelianStructure
    row_chars: list[frozenset]  # row -> set of character coefficient tuples
    f_min: dict  # char tuple -> (degree, row) of the cheapest containing row

    def f(self, chi: tuple) -> int:
        return self.f_min[chi][0]

    def f_row(self, chi: tuple) -> int:
        return self.f_min[chi][1]


def all_central_characters(st: AbelianStructure) -> list[tuple]:
    """Every character of the abelian group with structure st, as coefficient
    tuples c in its coordinates: lambda_c(x) = zeta_e^(sum_j c_j x_j e/d_j).
    These are the keys of `RestrictionData`; for the gcd=min condition the
    group is central."""
    return list(itertools.product(*[range(d) for d in st.divisors]))


def restriction_data(table: CharacterTable, a: Subgroup) -> RestrictionData:
    """Which characters lambda of a appear in which rows.

    The multiplicity (1/|a|) sum_x chi(x) lambda(x^-1) of lambda in a row is
    a rational integer in [0, deg chi].  It is computed mod a prime q = 1
    (mod e) above every degree, at one primitive e-th root of unity, as a
    matrix product.  Every prime dividing |a| divides e, so q does not, and
    the residue is 0 exactly when the multiplicity is.

    Memoized on the table per subgroup element set.
    """
    rd = table._restrictions.get(a.elements)
    if rd is not None:
        return rd
    g = table.group
    st = structure(a)
    e = table.conductor
    elems = sorted(a.elements)
    char_tuples = all_central_characters(st)
    r = len(st.divisors)
    vectors = np.array([st.to_vector(x) for x in elems],
                       dtype=np.int64).reshape(len(elems), r)
    chars = np.array(char_tuples, dtype=np.int64).reshape(len(char_tuples), r)
    steps = np.array([e // d for d in st.divisors], dtype=np.int64)
    exps = (vectors * steps) @ chars.T % e
    q = split_prime(e, max(table.degrees))
    values = table.values_mod(q, [1])[0][:, g.conjugacy_classes().index[elems]]
    present = values @ root_powers(e, q)[-exps % e] % q != 0
    row_chars = []
    f_min: dict = {}
    for row in range(table.n_classes):
        deg = table.degrees[row]
        found = [ct for ct, p in zip(char_tuples, present[row]) if p]
        for ct in found:
            if ct not in f_min or (deg, row) < f_min[ct]:
                f_min[ct] = (deg, row)
        row_chars.append(frozenset(found))
    rd = RestrictionData(table, a, st, row_chars, f_min)
    table._restrictions[a.elements] = rd
    return rd


def gcd_min_condition(table: CharacterTable, field: FieldDescriptor,
                      c: Subgroup) -> bool:
    """Whether, for every character of the central subgroup c, the degrees of
    the rows carrying it have their gcd equal to their min.

    By Schur's lemma c acts on an irreducible row by scalars, so each row
    carries exactly one character of c, read off `restriction_data`.
    """
    if not supports_splitting(table.group, field):
        raise OutOfScope("field does not split the group")
    if not c.is_central():
        raise NotCentral("the gcd=min condition needs a central subgroup")
    degrees: dict = {}
    for row, chars in enumerate(restriction_data(table, c).row_chars):
        if len(chars) != 1:
            raise NonScalar(f"row {row} carries {len(chars)} characters "
                            "of a central subgroup")
        (chi,) = chars
        degrees.setdefault(chi, []).append(table.degrees[row])
    return all(math.gcd(*d) == min(d) for d in degrees.values())
