"""Exact complex character tables via class-sum matrices over a prime field.

The class-multiplication constants give commuting integer matrices; their
simultaneous eigenvectors over F_q (q = 1 mod exp G, q > 2 sqrt |G|) determine
the characters mod q.  The constants are counted with one `np.bincount` per
class representative r_k, over the column u -> u r_k.  The split runs on int64
arrays with the modular row reduction, kernels and eigenvalues of `snf`: each
subspace is kept in reduced row echelon form, so the coordinates of an image
are its entries at the pivot columns and closure under a class matrix is one
array identity; each eigenvalue of the coordinate matrix cuts out a smaller
subspace, until all are lines.  A discrete Fourier transform on the powers of
each class representative g_k gives the eigenvalue multiplicities m[k][i, t]
of g_k in chi_i, so chi_i(g_k) = sum_t m[k][i, t] zeta_ord(g_k)^t.  They lie
in [0, deg chi_i], below q, so their residues are exact.  These non-negative
integers are the stored table; cyclotomic values (`cyclo`) are built only for
output, by `CharacterTable.cyclotomic_values`.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .abelian import structure
from .cyclo import Cyclotomic, _expansion
from .errors import (
    BackendLimit,
    EmptyRepClass,
    InternalInconsistency,
    NotCentral,
    NonScalar,
    OutOfScope,
)
from .fields import FieldDescriptor, supports_splitting
from .groups import FiniteGroup, Subgroup
from .ntheory import is_prime, primitive_root, split_prime
from .snf import eigenvalues_mod, kernel_mod, rref_mod

CLASS_LIMIT = 120
ORDER_LIMIT = 50_000


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
    """z^t mod q for t < e, z = g^((q-1)/e) a primitive e-th root of unity in
    F_q (q = 1 mod e), g the least primitive root mod q."""
    z = pow(primitive_root(q), (q - 1) // e, q)
    return np.array([pow(z, t, q) for t in range(e)], dtype=np.int64)


def _tensor_coeffs(e: int, mult: np.ndarray) -> dict:
    """Integer coefficients of sum_t mult[t] zeta_e^(t e / len(mult)) in the
    tensor basis of Q(zeta_e) that `cyclo` uses."""
    step = e // len(mult)
    out: dict = {}
    for t in np.flatnonzero(mult):
        sign, keys = _expansion(e, int(t) * step)
        for key in keys:
            out[key] = out.get(key, 0) + sign * int(mult[t])
    return {key: c for key, c in out.items() if c}


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

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)

    def values_mod(self, q: int, units: list[int]) -> np.ndarray:
        """x[r, i, k] = chi_i(g_k) mod q under zeta_e -> z^units[r], z from
        `root_powers` (q = 1 mod e)."""
        e = self.conductor
        powers = root_powers(e, q)
        x = np.empty((len(units), self.n_classes, self.n_classes), dtype=np.int64)
        for k, m in enumerate(self.multiplicities):
            order = m.shape[1]
            exps = np.outer(np.arange(order) * (e // order), units) % e
            x[:, :, k] = ((m % q) @ powers[exps] % q).T
        return x

    def cyclotomic_values(self) -> list[list[Cyclotomic]]:
        """The values as cyclotomic numbers (rows = characters, columns = classes)."""
        e = self.conductor
        return [[Cyclotomic(e, _tensor_coeffs(e, m[i])) for m in self.multiplicities]
                for i in range(self.n_classes)]

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
            if (m < 0).any() or (m > degrees).any() or \
                    (m.sum(axis=1) != degrees[:, 0]).any():
                raise InternalInconsistency(
                    f"multiplicities of class {k} do not count the degrees' eigenvalues")

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


@dataclass
class CentralCharacter:
    """Character of a central subgroup, stored by values on sorted elements."""

    subgroup: Subgroup
    conductor: int
    values: dict  # element index -> root-of-unity exponent (out of conductor)

    def key(self) -> tuple:
        return tuple(self.values[z] for z in sorted(self.values))

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values.values())


# ---------------------------------------------------------------------------
# construction


def character_table(g: FiniteGroup, cache_dir: Optional[str] = None,
                    use_cache: bool = True) -> CharacterTable:
    if g.order > ORDER_LIMIT:
        raise BackendLimit(f"group order {g.order} exceeds {ORDER_LIMIT}")
    classes = g.conjugacy_classes()
    if len(classes) > CLASS_LIMIT:
        raise BackendLimit(f"{len(classes)} classes exceed the limit {CLASS_LIMIT}")

    if use_cache:
        cached = _cache_load(g, cache_dir)
        if cached is not None:
            return cached

    table = _dixon_schneider(g)
    table.verify_orthogonality()
    if use_cache:
        _cache_store(g, table, cache_dir)
    return table


def _class_data(g: FiniteGroup) -> tuple[list[int], list[int], list[int]]:
    """Class representatives (least elements), class sizes and inverse classes."""
    classes = g.conjugacy_classes()
    cmap = g.class_map()
    reps = [min(c) for c in classes]
    return reps, [len(c) for c in classes], [cmap[g.inv(r)] for r in reps]


def _dixon_schneider(g: FiniteGroup) -> CharacterTable:
    reps, sizes, inv_class = _class_data(g)
    n = len(reps)
    cmap = np.array(g.class_map())
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
    mults = []
    for rk in reps:
        cyclic = [0]  # the powers of g_k
        while (x := g.mult(cyclic[-1], rk)) != 0:
            cyclic.append(x)
        dk = len(cyclic)
        ts = np.arange(dk)
        dft = powers[-np.outer(ts, ts) * (e // dk) % e]
        m = chi[:, cmap[cyclic]] @ dft % q * pow(dk, -1, q) % q
        if (m > degrees[:, None]).any():
            raise InternalInconsistency("eigenvalue multiplicity too large")
        mults.append(m)

    # rows by degree, then by the values' tensor-basis coefficients
    perm = sorted(range(n), key=lambda i: (
        degrees[i], [sorted(_tensor_coeffs(e, m[i]).items()) for m in mults]))
    return CharacterTable(g, e, reps, sizes, inv_class,
                          [int(degrees[i]) for i in perm], [m[perm] for m in mults])


def _class_constants(g: FiniteGroup, reps: list[int], cmap: np.ndarray) -> np.ndarray:
    """a[i, j, k] = #{(x, y) in C_i x C_j : x y = r_k}, counted as
    #{u : u^-1 in C_i, u r_k in C_j} with one bincount per class rep r_k."""
    n = len(reps)
    inv_cmap = cmap[[g.inv(u) for u in g.elements()]] * n
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
    and the eigenspace of a[i] for lam is then {x V : x C = lam x}.
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
            shifted = coords.T.copy()
            for lam in eigenvalues_mod(coords, q):
                np.fill_diagonal(shifted, coords.diagonal() - lam)
                nxt.append(rref_mod(kernel_mod(shifted, q) @ basis, q)[0])
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
    key = f"{g.fingerprint(with_generators=False)}_{g.presentation_digest()}"
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
            json.dump(table.serialize(), fh)
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
    cmap = g.class_map()
    d = table.degrees[row]
    inside = [m[row, 0] == d for m in table.multiplicities]
    return Subgroup(g, frozenset(x for x in g.elements() if inside[cmap[x]]),
                    normal=True)


def central_character(table: CharacterTable, row: int,
                      c: Subgroup) -> CentralCharacter:
    """Root-of-unity scalar by which each element of a central subgroup acts.

    z acts as the scalar zeta^t exactly when all d eigenvalues of z are
    zeta^t, i.e. when the multiplicity of zeta^t is d.
    """
    if not c.is_central():
        raise NotCentral("central character requires a central subgroup")
    g = table.group
    cmap = g.class_map()
    d = table.degrees[row]
    e = table.conductor
    values = {}
    for z in sorted(c.elements):
        m = table.multiplicities[cmap[z]][row]
        scalar = np.flatnonzero(m == d)
        if not len(scalar):
            raise NonScalar(f"central element {z} does not act as a scalar on row {row}")
        values[z] = int(scalar[0]) * (e // len(m))
    return CentralCharacter(c, e, values)


def rep_chi_degrees(table: CharacterTable, c: Subgroup,
                    chi: CentralCharacter) -> list[int]:
    """Degrees of the irreducible rows whose central character on c equals chi."""
    out = []
    for row in range(table.n_classes):
        cc = central_character(table, row, c)
        if cc.key() == chi.key():
            out.append(table.degrees[row])
    return sorted(out)


def f_value(table: CharacterTable, field: FieldDescriptor, c: Subgroup,
            chi: CentralCharacter) -> int:
    """Least degree of an irreducible with the given scalar action on c."""
    if not supports_splitting(table.group, field):
        raise OutOfScope("field does not split the group")
    if chi.is_trivial() and not c.elements - {0}:
        return 1
    degs = rep_chi_degrees(table, c, chi)
    if not degs:
        raise EmptyRepClass("no irreducible row restricts to the given character")
    return degs[0]


def all_central_characters(table: CharacterTable, c: Subgroup) -> list[CentralCharacter]:
    """Every character of a central subgroup, enumerated through the structure."""
    st = structure(c)
    e = table.conductor
    exp_c = st.exponent
    if exp_c > 1 and e % exp_c != 0:
        raise InternalInconsistency("central subgroup exponent does not divide conductor")
    out = []
    for coeffs in itertools.product(*[range(d) for d in st.divisors]):
        values = {}
        for z in sorted(c.elements):
            vec = st.to_vector(z)
            t = sum(cc * v * (e // d) for cc, v, d in
                    zip(coeffs, vec, st.divisors)) % e if st.divisors else 0
            values[z] = t
        out.append(CentralCharacter(c, e, values))
    return out


def gcd_min_condition(table: CharacterTable, field: FieldDescriptor,
                      c: Subgroup) -> bool:
    """Whether gcd of restricted-degree sets equals their min for all characters of c."""
    if not supports_splitting(table.group, field):
        raise OutOfScope("field does not split the group")
    for chi in all_central_characters(table, c):
        degs = rep_chi_degrees(table, c, chi)
        if not degs:
            continue
        if math.gcd(*degs) != min(degs):
            return False
    return True
