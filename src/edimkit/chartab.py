"""Exact complex character tables via class-sum matrices over a prime field.

The class-multiplication constants give commuting integer matrices; their
simultaneous eigenvectors over F_q (q = 1 mod exp G, q > 2 sqrt |G|) determine
the characters mod q.  A discrete Fourier transform on the powers of each
class representative g_k gives the eigenvalue multiplicities m[k][i, t] of
g_k in chi_i, so chi_i(g_k) = sum_t m[k][i, t] zeta_ord(g_k)^t.  They lie in
[0, deg chi_i], below q, so their residues are exact.  These non-negative
integers are the stored table; cyclotomic values (`cyclo`) are built only
for output, by `CharacterTable.cyclotomic_values`.

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
# linear algebra over F_q


def _mat_vec(mat, vec, q):
    return [sum(m * v for m, v in zip(row, vec)) % q for row in mat]


def _rref(rows, q):
    """Row-reduce in place over F_q; returns (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % q != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [(x * inv) % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % q != 0:
                f = rows[i][c] % q
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _kernel_basis(mat, q):
    """Basis of the right kernel of mat over F_q."""
    n = len(mat[0]) if mat else 0
    rows, pivots = _rref(mat, q)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % q
        basis.append(v)
    return basis


def _solve_in_span(basis, target, q):
    """Coordinates of target in the row span of basis, or None."""
    if not basis:
        return None
    n = len(target)
    aug = [[basis[i][j] for i in range(len(basis))] + [target[j]] for j in range(n)]
    rows, pivots = _rref(aug, q)
    k = len(basis)
    coords = [0] * k
    for r, pc in enumerate(pivots):
        if pc == k:
            return None  # inconsistent
        coords[pc] = rows[r][k]
    # verify
    for j in range(n):
        if sum(coords[i] * basis[i][j] for i in range(k)) % q != target[j] % q:
            return None
    return coords


def _charpoly_roots(mat, q):
    """Distinct eigenvalues over F_q of a square matrix, by interpolation + scan."""
    m = len(mat)
    # evaluate det(mat - x I) at x = 0..m
    xs = list(range(m + 1))
    ys = []
    for x in xs:
        a = [[(mat[i][j] - (x if i == j else 0)) % q for j in range(m)]
             for i in range(m)]
        ys.append(_det(a, q))
    coeffs = _interpolate(xs, ys, q, m)
    roots = [lam for lam in range(q) if _poly_eval(coeffs, lam, q) == 0]
    return roots


def _det(a, q):
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] % q != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = (det * a[c][c]) % q
        inv = pow(a[c][c], -1, q)
        for i in range(c + 1, n):
            if a[i][c] % q != 0:
                f = (a[i][c] * inv) % q
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[c])]
    return det % q


def _interpolate(xs, ys, q, deg):
    """Lagrange interpolation of a degree <= deg polynomial, coefficients mod q."""
    coeffs = [0] * (deg + 1)
    for xi, yi in zip(xs, ys):
        # basis polynomial for xi
        num = [1]
        denom = 1
        for xj in xs:
            if xj == xi:
                continue
            num = _poly_mul(num, [-xj % q, 1], q)
            denom = (denom * (xi - xj)) % q
        f = (yi * pow(denom, -1, q)) % q
        for i, c in enumerate(num):
            coeffs[i] = (coeffs[i] + f * c) % q
    return coeffs


def _poly_mul(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def _poly_eval(coeffs, x, q):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


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
    cmap = g.class_map()
    e = g.exponent()
    order = g.order
    # q > 2 sqrt |G| determines degrees by their residues, q > n leaves enough
    # interpolation points, and e q^2 < 2^63 keeps the transform in int64
    q = split_prime(e, max(2 * math.isqrt(order) + 1, n + 1))
    if e * q * q >= 2 ** 63:
        raise BackendLimit(f"Dixon prime {q} is too large for int64 arithmetic")

    # class multiplication constants: a[i][j][k] = #{(x,y) in C_i x C_j : xy = r_k}
    a = [[[0] * n for _ in range(n)] for _ in range(n)]
    for k, rk in enumerate(reps):
        for x in range(order):
            y = g.mult(g.inv(x), rk)
            a[cmap[x]][cmap[y]][k] += 1

    # simultaneous eigenvectors of the class-sum matrices B_i[j][k] = a[i][j][k]
    spaces = _full_split(a, n, q)
    if any(len(s) != 1 for s in spaces) or len(spaces) != n:
        raise InternalInconsistency("failed to split the class algebra into lines")

    rows = []
    for (vec,) in spaces:
        if vec[0] % q == 0:
            raise InternalInconsistency("eigenvector vanishes on the identity class")
        norm = pow(vec[0], -1, q)
        omega = [(v * norm) % q for v in vec]  # omega_k = |C_k| chi(g_k)/d mod q
        theta = [(omega[k] * pow(sizes[k], -1, q)) % q for k in range(n)]
        s = sum(sizes[k] * theta[k] * theta[inv_class[k]] for k in range(n)) % q
        d2 = (order * pow(s, -1, q)) % q
        d = next((t for t in range(1, 2 * math.isqrt(order) + 2)
                  if (t * t) % q == d2), None)
        if d is None:
            raise InternalInconsistency("no admissible degree for eigenvector")
        rows.append((d, [(d * theta[k]) % q for k in range(n)]))

    degrees_check = sum(d * d for d, _ in rows)
    if degrees_check != order:
        raise InternalInconsistency(
            f"degree squares sum to {degrees_check}, expected {order}")

    # eigenvalue multiplicities: m_t = (1/d_k) sum_s chi(g_k^s) zeta^(-st),
    # the discrete Fourier transform of chi on the powers of g_k, all mod q
    degrees = np.array([d for d, _ in rows])
    chi = np.array([chi_mod for _, chi_mod in rows], dtype=np.int64)
    powers = root_powers(e, q)
    mults = []
    for rk in reps:
        cyclic = [0]  # the powers of g_k
        while (x := g.mult(cyclic[-1], rk)) != 0:
            cyclic.append(x)
        power_classes = [cmap[x] for x in cyclic]
        dk = len(cyclic)
        ts = np.arange(dk)
        dft = powers[-np.outer(ts, ts) * (e // dk) % e]
        m = chi[:, power_classes] @ dft % q * pow(dk, -1, q) % q
        if (m > degrees[:, None]).any():
            raise InternalInconsistency("eigenvalue multiplicity too large")
        mults.append(m)

    # rows by degree, then by the values' tensor-basis coefficients
    perm = sorted(range(n), key=lambda i: (
        degrees[i], [sorted(_tensor_coeffs(e, m[i]).items()) for m in mults]))
    return CharacterTable(g, e, reps, sizes, inv_class,
                          [int(degrees[i]) for i in perm], [m[perm] for m in mults])


def _full_split(a, n, q):
    """Split the full coordinate space by every class matrix sequentially."""
    spaces = [[[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    for i in range(1, n):
        b = a[i]
        nxt = []
        for basis in spaces:
            if len(basis) == 1:
                nxt.append(basis)
                continue
            m = len(basis)
            images = [_mat_vec(b, v, q) for v in basis]
            coords = [_solve_in_span(basis, img, q) for img in images]
            if any(c is None for c in coords):
                raise InternalInconsistency("class algebra not closed on subspace")
            rmat = [[coords[t][s] for t in range(m)] for s in range(m)]
            for lam in _charpoly_roots(rmat, q):
                shifted = [[(rmat[r][c] - (lam if r == c else 0)) % q
                            for c in range(m)] for r in range(m)]
                kvs = _kernel_basis(shifted, q)
                if kvs:
                    sub = [[sum(kv[t] * basis[t][j] for t in range(m)) % q
                            for j in range(len(basis[0]))] for kv in kvs]
                    nxt.append(sub)
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
