"""Multihomogenization of graded polynomial and rational maps.

Blockwise torus weights of each component are extracted combinatorially: a
one-parameter subgroup injective on the occurring weight set picks, per
target block, the component of minimal pairing; the resulting map scales by
monomial characters and its exponents form the degree matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    InvalidRefinement,
    LambdaNotInjective,
    NotEquivariant,
    NotMultihomogeneous,
    ParseError,
    ShapeMismatch,
)
from .poly import Polynomial, parse_polynomial

JACOBIAN_POINTS = 3


# ---------------------------------------------------------------------------
# gradings and maps


@dataclass(frozen=True)
class Grading:
    block_dims: tuple
    prefix: str = "x"

    def __post_init__(self):
        if any(d < 1 for d in self.block_dims):
            raise ShapeMismatch("block dimensions must be positive")

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def variable_names(self) -> list[str]:
        if self.n_blocks == 1 and self.block_dims[0] == 1:
            return [self.prefix]
        out = []
        for b, d in enumerate(self.block_dims):
            if d == 1:
                out.append(f"{self.prefix}{b + 1}")
            else:
                out.extend(f"{self.prefix}{b + 1}_{t + 1}" for t in range(d))
        return out

    def block_of(self) -> list[int]:
        """Block index of each flat variable position."""
        out = []
        for b, d in enumerate(self.block_dims):
            out.extend([b] * d)
        return out

    def coordinate_slices(self) -> list[range]:
        out = []
        start = 0
        for d in self.block_dims:
            out.append(range(start, start + d))
            start += d
        return out


@dataclass
class GradedPolyMap:
    source: Grading
    target: Grading
    numerators: list  # one Polynomial per flat target coordinate
    denominator: Polynomial

    def __post_init__(self):
        if len(self.numerators) != self.target.total_dim:
            raise ShapeMismatch(
                f"{len(self.numerators)} numerators for a target of dimension "
                f"{self.target.total_dim}")
        nv = self.source.total_dim
        for p in self.numerators:
            if p.nvars != nv:
                raise ShapeMismatch("numerator variable count mismatch")
        if self.denominator.nvars != nv:
            raise ShapeMismatch("denominator variable count mismatch")
        if self.denominator.is_zero():
            raise ShapeMismatch("denominator is zero")

    def is_regular(self) -> bool:
        from .poly import _as_constant

        return _as_constant(self.denominator) is not None

    def block_numerators(self, j: int) -> list:
        return [self.numerators[t] for t in self.target.coordinate_slices()[j]]

    def __eq__(self, other):
        return (isinstance(other, GradedPolyMap)
                and self.source == other.source and self.target == other.target
                and self.numerators == other.numerators
                and self.denominator == other.denominator)


@dataclass
class DegreeMatrix:
    entries: list  # m x n integer matrix: rows = source blocks
    zero_columns: frozenset

    def rank(self) -> int:
        return matrix_rank(self.entries)

    def as_lists(self) -> list:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class OneParamSubgroup:
    weights: tuple

    def pairing(self, chi: Sequence[int]) -> int:
        return sum(c * l for c, l in zip(chi, self.weights))


# ---------------------------------------------------------------------------
# weight machinery


def monomial_weight(mono: tuple, block_of: list[int], m: int) -> tuple:
    w = [0] * m
    for pos, e in enumerate(mono):
        w[block_of[pos]] += e
    return tuple(w)


def weight_decompose(p: Polynomial, grading: Grading) -> dict:
    """Split a polynomial into its blockwise-homogeneous weight components."""
    block_of = grading.block_of()
    m = grading.n_blocks
    parts: dict = {}
    for mono, c in p.terms.items():
        parts.setdefault(monomial_weight(mono, block_of, m), {})[mono] = c
    return {w: Polynomial(p.nvars, terms) for w, terms in parts.items()}


def choose_lambda(weight_set) -> OneParamSubgroup:
    """Deterministic one-parameter subgroup separating a finite weight set.

    Tries geometric weight vectors (1, b, b^2, ...) for b = 1, 2, ...; a base
    larger than the coordinate spread always separates, so this terminates.
    """
    ws = sorted(set(map(tuple, weight_set)))
    if not ws:
        return OneParamSubgroup((1,))
    m = len(ws[0])
    b = 1
    while True:
        lam = OneParamSubgroup(tuple(b ** i for i in range(m)))
        pairings = [lam.pairing(w) for w in ws]
        if len(set(pairings)) == len(ws):
            return lam
        b += 1


def occurring_weights(phi: GradedPolyMap) -> set:
    return _weights(_split(phi))


def _split(phi: GradedPolyMap) -> list:
    """The weight split of the denominator, then of each numerator."""
    return [weight_decompose(p, phi.source)
            for p in [phi.denominator, *phi.numerators]]


def _weights(splits: list) -> set:
    # merged split by split: the set's iteration order decides which pair
    # a LambdaNotInjective message names
    out = set(splits[0])
    for parts in splits[1:]:
        out |= set(parts)
    return out


# ---------------------------------------------------------------------------
# homogenization


def homogenize(phi: GradedPolyMap,
               lam: Optional[OneParamSubgroup] = None
               ) -> tuple[GradedPolyMap, DegreeMatrix]:
    """Extract the minimal-pairing multihomogeneous part of a graded map.

    Per target block the weight component with the least pairing against the
    one-parameter subgroup survives (the denominator contributes its own
    minimal component); zero components give zero matrix columns.
    """
    splits = _split(phi)
    den_parts, *num_parts = splits
    s_all = _weights(splits)
    if lam is None:
        lam = choose_lambda(s_all)
    else:
        pairings = {}
        for w in s_all:
            p = lam.pairing(w)
            if p in pairings and pairings[p] != w:
                raise LambdaNotInjective(
                    f"weights {pairings[p]} and {w} share pairing {p}")
            pairings[p] = w
    m = phi.source.n_blocks
    chi0 = min(den_parts, key=lam.pairing)
    new_den = den_parts[chi0]

    new_nums: list = []
    columns: list = []
    zero_cols = set()
    slices = phi.target.coordinate_slices()
    for j, sl in enumerate(slices):
        block_weights = set().union(*(num_parts[t] for t in sl))
        if not block_weights:
            for t in sl:
                new_nums.append(Polynomial.zero(phi.source.total_dim))
            zero_cols.add(j)
            columns.append((0,) * m)
            continue
        chi_j = min(block_weights, key=lam.pairing)
        for t in sl:
            new_nums.append(num_parts[t].get(chi_j)
                            or Polynomial.zero(phi.source.total_dim))
        columns.append(tuple(a - b for a, b in zip(chi_j, chi0)))
    entries = [[columns[j][i] for j in range(len(slices))] for i in range(m)]
    result = GradedPolyMap(phi.source, phi.target, new_nums, new_den)
    matrix = DegreeMatrix(entries, frozenset(zero_cols))
    # the output must be multihomogeneous with exactly this matrix
    check = degree_matrix(result)
    if check.as_lists() != matrix.as_lists():
        raise NotMultihomogeneous(  # pragma: no cover
            "extracted map fails its own degree-matrix verification")
    return result, matrix


def degree_matrix(phi: GradedPolyMap) -> DegreeMatrix:
    """The unique scaling-exponent matrix of a multihomogeneous map."""
    m = phi.source.n_blocks
    den_parts = weight_decompose(phi.denominator, phi.source)
    if len(den_parts) != 1:
        raise NotMultihomogeneous(
            f"denominator has {len(den_parts)} distinct weights: "
            f"{sorted(den_parts)}")
    chi0 = next(iter(den_parts))
    entries = [[0] * phi.target.n_blocks for _ in range(m)]
    zero_cols = set()
    for j, sl in enumerate(phi.target.coordinate_slices()):
        weights: set = set()
        for t in sl:
            weights |= set(weight_decompose(phi.numerators[t], phi.source))
        if not weights:
            zero_cols.add(j)
            continue
        if len(weights) != 1:
            raise NotMultihomogeneous(
                f"target block {j} mixes weights {sorted(weights)}")
        chi = next(iter(weights))
        for i in range(m):
            entries[i][j] = chi[i] - chi0[i]
    return DegreeMatrix(entries, frozenset(zero_cols))


def matrix_rank(entries) -> int:
    """Exact rank over the rationals, by fraction-free elimination (Bareiss).

    Each row of ints or Fractions is scaled by the lcm of its denominators,
    which keeps the rank.  After k pivots every entry of the rows below is
    a (k+1)-minor of those integer rows, so the division by the previous
    pivot is exact (Sylvester's identity) and entries stay integers.
    """
    rows = []
    for row in entries:
        den = math.lcm(1, *(x.denominator for x in row))
        rows.append([int(x * den) for x in row])
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            a = rows[i][col]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        rank += 1
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# refinement


def _check_refines(coarse: Grading, fine: Grading):
    """fine must partition each coarse block into consecutive pieces."""
    it = iter(fine.block_dims)
    for d in coarse.block_dims:
        acc = 0
        while acc < d:
            try:
                acc += next(it)
            except StopIteration:
                raise InvalidRefinement(
                    f"{fine.block_dims} does not refine {coarse.block_dims}")
        if acc != d:
            raise InvalidRefinement(
                f"{fine.block_dims} does not refine {coarse.block_dims}")
    if next(it, None) is not None:
        raise InvalidRefinement(
            f"{fine.block_dims} does not refine {coarse.block_dims}")


def refine(phi: GradedPolyMap,
           source: Optional[Grading] = None,
           target: Optional[Grading] = None
           ) -> tuple[GradedPolyMap, DegreeMatrix]:
    """Regrade a map with finer blocks.

    Refining only the target keeps the map and its rank unchanged; refining
    the source re-homogenizes and can only increase the degree-matrix rank.
    Both facts are asserted on the output.
    """
    old_rank = degree_matrix(phi).rank()
    new_source = source or phi.source
    new_target = target or phi.target
    if source is not None:
        _check_refines(phi.source, new_source)
    if target is not None:
        _check_refines(phi.target, new_target)
    out = GradedPolyMap(new_source, new_target,
                        list(phi.numerators), phi.denominator)
    if source is None:
        matrix = degree_matrix(out)
        if matrix.rank() != old_rank:
            raise InvalidRefinement(  # pragma: no cover
                "target refinement changed the degree-matrix rank")
        return out, matrix
    out, matrix = homogenize(out)
    if matrix.rank() < old_rank:
        raise InvalidRefinement(  # pragma: no cover
            "source refinement decreased the degree-matrix rank")
    return out, matrix


# ---------------------------------------------------------------------------
# equivariance and rank reports


def _apply_matrix_to_vars(mat, nvars: int) -> list:
    """Linear substitution images: variable t -> sum_s mat[t][s) * var_s."""
    images = []
    for t in range(nvars):
        p = Polynomial.zero(nvars)
        for s in range(nvars):
            c = Fraction(mat[t][s])
            if c:
                p = p + Polynomial.variable(nvars, s).scale(c)
        images.append(p)
    return images


def verify_equivariance(phi: GradedPolyMap, gens_v: list, gens_w: list) -> bool:
    """Exact check that the map intertwines paired linear actions.

    For each generator pair (A on the source, B on the target) the identity
    psi(A v) * f(v) = (B psi(v)) * f(A v) is tested symbolically.
    """
    if len(gens_v) != len(gens_w):
        raise ShapeMismatch("generator list lengths differ")
    nv = phi.source.total_dim
    nw = phi.target.total_dim
    for a, bmat in zip(gens_v, gens_w):
        if len(a) != nv or any(len(row) != nv for row in a):
            raise ShapeMismatch("source generator matrix shape mismatch")
        if len(bmat) != nw or any(len(row) != nw for row in bmat):
            raise ShapeMismatch("target generator matrix shape mismatch")
        images = _apply_matrix_to_vars(a, nv)
        f_av = phi.denominator.substitute(images)
        for t in range(nw):
            lhs = phi.numerators[t].substitute(images) * phi.denominator
            rhs = Polynomial.zero(nv)
            for s in range(nw):
                c = Fraction(bmat[t][s])
                if c:
                    rhs = rhs + phi.numerators[s].scale(c)
            rhs = rhs * f_av
            if lhs != rhs:
                return False
    return True


@dataclass
class RankBoundReport:
    degree_matrix_rank: int
    scalar_center_rank: int
    satisfies_lower_bound: bool
    jacobian_rank_estimate: int
    probabilistic_upper_bound: int
    probabilistic: bool = True
    note: str = ("image-dimension estimate is probabilistic (Jacobian rank at "
                 "a random point) and is never fed into certified bounds; "
                 "irreducibility of target blocks is a caller assertion")


def jacobian_rank(phi: GradedPolyMap) -> int:
    """Jacobian rank at seeded random rational points; max over JACOBIAN_POINTS."""
    rng = random.Random(0)
    nv = phi.source.total_dim
    best = 0
    for _ in range(JACOBIAN_POINTS):
        point = [Fraction(rng.randint(1, 2 ** 63), rng.randint(1, 997))
                 for _ in range(nv)]
        f_val = phi.denominator.evaluate(point)
        if f_val == 0:
            continue
        rows = []
        for p in phi.numerators:
            p_val = p.evaluate(point)
            row = []
            for i in range(nv):
                # quotient rule for (p/f)' at the point
                dp = p.partial(i).evaluate(point)
                df = phi.denominator.partial(i).evaluate(point)
                row.append((dp * f_val - p_val * df) / (f_val * f_val))
            rows.append(row)
        best = max(best, matrix_rank(rows))
    return best


def rank_bound_check(phi: GradedPolyMap, gens_v: list, gens_w: list,
                     scalar_center_rank: int) -> RankBoundReport:
    """Degree-matrix rank vs scalar-center rank, with a labeled dim estimate."""
    if not verify_equivariance(phi, gens_v, gens_w):
        raise NotEquivariant("map does not intertwine the given actions")
    mat = degree_matrix(phi)
    rk_m = mat.rank()
    dim_est = jacobian_rank(phi)
    return RankBoundReport(
        degree_matrix_rank=rk_m,
        scalar_center_rank=scalar_center_rank,
        satisfies_lower_bound=rk_m >= scalar_center_rank,
        jacobian_rank_estimate=dim_est,
        probabilistic_upper_bound=dim_est - (rk_m - scalar_center_rank),
    )


# ---------------------------------------------------------------------------
# JSON ingestion


def _list_of(kind: type, key: str, value) -> list:
    if not isinstance(value, list) or not all(isinstance(x, kind) for x in value):
        raise ParseError(f"map key {key!r} must be a list of {kind.__name__}")
    return value


def map_from_json(data: dict) -> tuple[GradedPolyMap, Optional[list], Optional[list]]:
    """Build a graded map (and optional generator matrices) from a JSON dict.

    Expected keys: source_blocks, target_blocks (lists of dims), numerators
    (list of expression strings), optional denominator, optional
    source_variables, optional generators_source / generators_target.
    """
    if not isinstance(data, dict):
        raise ParseError("map must be a JSON object")
    prefix = data.get("prefix", "x")
    den_src = data.get("denominator", "1")
    if not isinstance(prefix, str) or not isinstance(den_src, str):
        raise ParseError("map keys 'prefix' and 'denominator' must be strings")
    source = Grading(tuple(_list_of(int, "source_blocks", data.get("source_blocks"))),
                     prefix=prefix)
    target = Grading(tuple(_list_of(int, "target_blocks", data.get("target_blocks"))),
                     prefix="y")
    names = _list_of(str, "source_variables",
                     data.get("source_variables") or source.variable_names())
    if len(names) != source.total_dim:
        raise ShapeMismatch("variable name count does not match source grading")
    nums = [parse_polynomial(s, names)
            for s in _list_of(str, "numerators", data.get("numerators"))]
    den = parse_polynomial(den_src, names)
    phi = GradedPolyMap(source, target, nums, den)

    def load_mats(key):
        if key not in data:
            return None
        mats = _list_of(list, key, data[key])
        if not all(isinstance(row, list) for mat in mats for row in mat):
            raise ParseError(f"map key {key!r} must be a list of matrices")
        return [[[Fraction(str(x)) for x in row] for row in mat] for mat in mats]

    return phi, load_mats("generators_source"), load_mats("generators_target")
