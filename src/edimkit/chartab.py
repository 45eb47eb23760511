"""Exact complex character tables via class-sum matrices over a prime field.

The class-multiplication constants give commuting integer matrices; their
simultaneous eigenvectors over F_q (q = 1 mod exp G, q > 2 sqrt |G|) determine
the characters mod q, which are lifted to exact cyclotomic values through
discrete logarithms and root-of-unity multiplicity extraction.  Both
orthogonality relations are verified exactly on every table.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .abelian import structure
from .cyclo import Cyclotomic
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
from .ntheory import is_prime, primitive_root

CLASS_LIMIT = 120
ORDER_LIMIT = 50_000


# ---------------------------------------------------------------------------
# prime-field helpers


def _next_dixon_prime(exp_g: int, order: int, n_classes: int) -> int:
    # q must exceed 2*sqrt(|G|) so degrees are determined by their residues,
    # and exceed the class count so polynomial interpolation has enough points
    bound = max(2 * math.isqrt(order) + 1, n_classes + 1)
    q = exp_g + 1
    while True:
        if q > bound and is_prime(q):
            return q
        q += exp_g
    # unreachable


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
    values: list[list[Cyclotomic]]  # rows = characters, columns = classes

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)

    def verify_orthogonality(self, full: bool = True) -> None:
        g = self.group
        n = self.n_classes
        order = g.order
        pairs = (
            [(i, j) for i in range(n) for j in range(i, n)]
            if full
            else [(i, i) for i in range(n)] + [(0, j) for j in range(1, n)]
        )
        for i, j in pairs:
            acc = Cyclotomic.zero(self.conductor)
            for k in range(n):
                acc = acc + self.values[i][k] * self.values[j][self.inverse_class[k]] \
                    * self.class_sizes[k]
            expect = order if i == j else 0
            if acc != Cyclotomic.from_rational(self.conductor, expect):
                raise InternalInconsistency(
                    f"row orthogonality failed for rows {i},{j}")
        if full:
            for k in range(n):
                for l in range(k, n):
                    acc = Cyclotomic.zero(self.conductor)
                    for i in range(n):
                        acc = acc + self.values[i][k] * \
                            self.values[i][self.inverse_class[l]]
                    expect = order // self.class_sizes[k] if k == l else 0
                    if acc != Cyclotomic.from_rational(self.conductor, expect):
                        raise InternalInconsistency(
                            f"column orthogonality failed for classes {k},{l}")
        if sum(d * d for d in self.degrees) != order:
            raise InternalInconsistency("degree squares do not sum to group order")

    def serialize(self) -> dict:
        return {
            "conductor": self.conductor,
            "class_reps": self.class_reps,
            "class_sizes": self.class_sizes,
            "inverse_class": self.inverse_class,
            "degrees": self.degrees,
            "values": [[v.serialize() for v in row] for row in self.values],
        }

    @staticmethod
    def deserialize(group: FiniteGroup, data: dict) -> "CharacterTable":
        e = data["conductor"]
        return CharacterTable(
            group,
            e,
            list(data["class_reps"]),
            list(data["class_sizes"]),
            list(data["inverse_class"]),
            list(data["degrees"]),
            [[Cyclotomic.deserialize(e, v) for v in row] for row in data["values"]],
        )


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
            cached.verify_orthogonality(full=(g.order <= 2000))
            return cached

    table = _dixon_schneider(g)
    table.verify_orthogonality(full=True)
    if use_cache:
        _cache_store(g, table, cache_dir)
    return table


def _dixon_schneider(g: FiniteGroup) -> CharacterTable:
    classes = g.conjugacy_classes()
    n = len(classes)
    reps = [min(c) for c in classes]
    sizes = [len(c) for c in classes]
    cmap = g.class_map()
    e = g.exponent()
    order = g.order
    q = _next_dixon_prime(e, order, n)
    inv_class = [cmap[g.inv(r)] for r in reps]

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

    w0 = primitive_root(q)
    zq = pow(w0, (q - 1) // e, q)  # fixed primitive e-th root of unity in F_q
    dlog = {pow(zq, t, q): t for t in range(e)}

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
        chi_mod = [(d * theta[k]) % q for k in range(n)]
        rows.append((d, chi_mod))

    degrees_check = sum(d * d for d, _ in rows)
    if degrees_check != order:
        raise InternalInconsistency(
            f"degree squares sum to {degrees_check}, expected {order}")

    # lift values: chi(g_k) = sum_t m_t zeta_d^t with multiplicities from
    # the discrete Fourier transform of chi on powers of g_k, all mod q
    value_rows = []
    power_class = _power_class_table(g, reps, cmap)
    for d, chi_mod in rows:
        values = []
        for k in range(n):
            dk = g.element_order(reps[k])
            zdk = pow(zq, e // dk, q)
            val = Cyclotomic.zero(e)
            inv_dk = pow(dk, -1, q)
            for t in range(dk):
                acc = 0
                for s in range(dk):
                    acc += chi_mod[power_class[k][s]] * pow(zdk, (-s * t) % dk, q)
                m_t = (acc * inv_dk) % q
                if m_t:
                    if m_t > d:
                        raise InternalInconsistency("eigenvalue multiplicity too large")
                    val = val + Cyclotomic.zeta_power(e, (e // dk) * t) * m_t
            values.append(val)
        value_rows.append((d, values))

    value_rows.sort(key=lambda r: (r[0], [v.sort_key() for v in r[1]]))
    return CharacterTable(
        g, e, reps, sizes, inv_class,
        [d for d, _ in value_rows], [vals for _, vals in value_rows],
    )


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


def _power_class_table(g: FiniteGroup, reps, cmap):
    out = []
    for r in reps:
        d = g.element_order(r)
        row = []
        x = 0
        for _ in range(d):
            row.append(cmap[x])
            x = g.mult(x, r)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# cache


def cache_directory(cache_dir: Optional[str]) -> str:
    """The table cache: cache_dir if given, else $EDIMKIT_CACHE, else ~/.cache/edimkit."""
    return cache_dir or os.environ.get("EDIMKIT_CACHE") or \
        os.path.join(os.path.expanduser("~"), ".cache", "edimkit")


def _cache_path(g: FiniteGroup, cache_dir: Optional[str]) -> Path:
    key = g.fingerprint(with_generators=True).replace(":", "_")
    return Path(cache_directory(cache_dir)) / f"chartab_{key}.json"


def _cache_load(g: FiniteGroup, cache_dir: Optional[str]) -> Optional[CharacterTable]:
    path = _cache_path(g, cache_dir)
    if not path.exists():
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        return CharacterTable.deserialize(g, data)
    except (json.JSONDecodeError, KeyError, OSError):
        return None


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
    """Elements where the character attains its degree; always a normal subgroup."""
    g = table.group
    cmap = g.class_map()
    deg = Cyclotomic.from_rational(table.conductor, table.degrees[row])
    elems = frozenset(
        x for x in g.elements() if table.values[row][cmap[x]] == deg
    )
    return Subgroup(g, elems, normal=True)


def central_character(table: CharacterTable, row: int,
                      c: Subgroup) -> CentralCharacter:
    """Root-of-unity scalar by which each element of a central subgroup acts."""
    if not c.is_central():
        raise NotCentral("central character requires a central subgroup")
    g = table.group
    cmap = g.class_map()
    d = table.degrees[row]
    e = table.conductor
    values = {}
    for z in sorted(c.elements):
        v = table.values[row][cmap[z]]
        # v must equal d * zeta^t for some t
        expo = None
        for t in range(e):
            if v == Cyclotomic.zeta_power(e, t) * d:
                expo = t
                break
        if expo is None:
            raise NonScalar(f"central element {z} does not act as a scalar on row {row}")
        values[z] = expo
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
