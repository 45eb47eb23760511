"""Interval engine for essential dimension and covariant dimension.

Bounds are derived by a fixed rule set (exact values when lower meets upper),
every tightening is recorded in a trace, and externally supplied literature
facts enter through a store that merges by interval intersection and fails
loudly on contradiction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .abelian import structure
from .chartab import character_table, gcd_min_condition
from .errors import (
    FactConflict,
    HypothesisFailed,
    NotSemiFaithful,
    ParseError,
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
from .groups import (
    SUBGROUP_LATTICE_LIMIT,
    FiniteGroup,
    Subgroup,
    all_subgroups,
    is_two_transitive,
)
from .ntheory import factorize, prime_power_base
from .repdim import (
    check_transfer_hypotheses,
    rdim,
    restriction_data,
    minimal_basis,
)

MAX_RECURSION = 6


# ---------------------------------------------------------------------------
# result and fact types


@dataclass
class EdimResult:
    lower: int
    upper: Optional[int]
    trace: list
    field: str
    conjectural_value: Optional[int] = None

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    def as_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "field": self.field,
            "trace": [list(t) for t in self.trace],
            "conjectural_value": self.conjectural_value,
        }


class _Bounds:
    """Monotone interval with a derivation trace."""

    def __init__(self, field_spec: str):
        self.lower = 0
        self.upper: Optional[int] = None
        self.trace: list = []
        self.field_spec = field_spec

    def tighten_lower(self, value: int, rule: str, citation: str, detail: str):
        if value > self.lower:
            self.lower = value
            self.trace.append((rule, citation, detail, f"lower >= {value}"))
            self._check()

    def tighten_upper(self, value: int, rule: str, citation: str, detail: str):
        if self.upper is None or value < self.upper:
            self.upper = value
            self.trace.append((rule, citation, detail, f"upper <= {value}"))
            self._check()

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    def _check(self):
        if self.upper is not None and self.lower > self.upper:
            raise FactConflict(
                f"derived bounds crossed: lower {self.lower} > upper {self.upper}; "
                f"trace: {self.trace}")

    def result(self) -> EdimResult:
        return EdimResult(self.lower, self.upper, self.trace, self.field_spec)


class FactStore:
    """Externally supplied intervals keyed by group fingerprint and field."""

    def __init__(self):
        self.data: dict = {}

    @staticmethod
    def _key(fingerprint: str, field_spec: str) -> tuple:
        return (fingerprint, field_spec)

    def add(self, fingerprint: str, field_spec: str, lower: int, upper: int,
            source: str):
        if lower > upper:
            raise FactConflict(f"fact from {source!r} has lower {lower} > upper {upper}")
        key = self._key(fingerprint, field_spec)
        if key in self.data:
            old = self.data[key]
            lo = max(old["lower"], lower)
            hi = min(old["upper"], upper)
            if lo > hi:
                raise FactConflict(
                    f"fact [{lower},{upper}] from {source!r} contradicts "
                    f"[{old['lower']},{old['upper']}] from {old['source']!r}")
            self.data[key] = {"lower": lo, "upper": hi,
                              "source": f"{old['source']}; {source}"}
        else:
            self.data[key] = {"lower": lower, "upper": upper, "source": source}

    def lookup(self, g: FiniteGroup, f: FieldDescriptor) -> Optional[dict]:
        # facts are keyed by the weak (presentation-independent) fingerprint
        return self.data.get(self._key(g.fingerprint(with_generators=False),
                                       f.spec()))

    # -- (de)serialization ------------------------------------------------

    def serialize(self) -> list:
        out = []
        for (fp, fs), v in sorted(self.data.items()):
            out.append({"group": fp, "field": fs, "lower": v["lower"],
                        "upper": v["upper"], "source": v["source"]})
        return out

    @staticmethod
    def deserialize(items: list) -> "FactStore":
        if not isinstance(items, list):
            raise ParseError("a facts file must hold a JSON list of facts")
        store = FactStore()
        for i, item in enumerate(items):
            if not (isinstance(item, dict)
                    and isinstance(item.get("group"), str)
                    and isinstance(item.get("field"), str)
                    and "lower" in item and "upper" in item):
                raise ParseError(f"fact {i} needs string group and field, "
                                 "and lower and upper bounds")
            try:
                lower, upper = int(item["lower"]), int(item["upper"])
            except (TypeError, ValueError):
                raise ParseError(f"fact {i} has a non-integer bound") from None
            store.add(item["group"], item["field"], lower, upper,
                      item.get("source", "unknown"))
        return store

    def merge(self, other: "FactStore"):
        for (fp, fs), v in other.data.items():
            self.add(fp, fs, v["lower"], v["upper"], v["source"])

    @staticmethod
    def load(path: str) -> "FactStore":
        with open(path, "r", encoding="utf-8") as fh:
            return FactStore.deserialize(json.load(fh))

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.serialize(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# citations: literature names for the rules, phrased as mathematical facts

CITE = {
    "R1": "the trivial group has essential dimension zero",
    "R2": "a nontrivial finite group needs at least one parameter",
    "R3": "an abelian group with enough roots of unity has essential dimension "
          "equal to its rank (Buhler-Reichstein / Karpenko-Merkurjev circle)",
    "R4": "multihomogenizing the identity covariant of a minimal faithful "
          "completely reducible representation drops one dimension per "
          "component beyond the scalar-center rank",
    "R5": "for a central prime-power socle with the gcd=min degree condition, "
          "essential dimension equals the minimal faithful dimension "
          "(Karpenko-Merkurjev type exactness)",
    "R6": "a split central subgroup can be cancelled: the defect of essential "
          "dimension over scalar-center rank is shared with the quotient",
    "R7": "a direct abelian factor with enough roots of unity shifts essential "
          "dimension by exactly the change in scalar-center rank",
    "R8": "restriction to a subgroup stays completely reducible away from the "
          "group order, giving edim G >= edim H - rk Z(H,k) + rk Z(G,k)",
    "R9": "a faithful covariant pair for the factors assembles to one for the "
          "product: subadditivity up to scalar-center ranks",
    "R10": "a central elementary abelian p-subgroup in characteristic p "
           "changes essential dimension by at most one",
    "R11": "externally supplied literature fact",
    "COV": "covariant dimension exceeds essential dimension exactly when the "
           "scalar center is trivial",
}


# ---------------------------------------------------------------------------
# the engine


def edim(g: FiniteGroup, f: FieldDescriptor,
         facts: Optional[FactStore] = None,
         subgroups: str = "cyclic",
         _depth: int = 0,
         _seen: frozenset = frozenset()) -> EdimResult:
    """Certified interval (often exact) for the essential dimension of g over f."""
    b = _Bounds(f.spec())
    seen = _seen | {g.fingerprint()}

    # R1: trivial group
    if g.order == 1:
        b.tighten_lower(0, "R1", CITE["R1"], "|G| = 1")
        b.tighten_upper(0, "R1", CITE["R1"], "|G| = 1")
        return b.result()

    # R2: any nontrivial group
    b.tighten_lower(1, "R2", CITE["R2"], f"|G| = {g.order} > 1")

    # R11: external facts first, so later exact derivations are checked
    # against them (a contradiction must surface as FactConflict)
    if facts is not None:
        hit = facts.lookup(g, f)
        if hit is not None:
            b.tighten_lower(hit["lower"], "R11", CITE["R11"], hit["source"])
            b.tighten_upper(hit["upper"], "R11", CITE["R11"], hit["source"])

    # R3: abelian with enough roots of unity
    if g.is_abelian():
        st = structure(Subgroup(g, frozenset(g.elements()), normal=True))
        if has_primitive_root(f, st.exponent):
            r = st.rank()
            b.tighten_lower(r, "R3", CITE["R3"], f"abelian of rank {r}")
            b.tighten_upper(r, "R3", CITE["R3"], f"abelian of rank {r}")
    if b.exact:
        return b.result()

    rk_z = k_center_rank(g, f)

    # R4: identity covariant of a minimal faithful representation
    w = None
    if is_semi_faithful(g, f):
        if supports_splitting(g, f):
            try:
                w = rdim(g, f)
                n = len(w.component_rows)
                b.tighten_upper(w.value, "R4", CITE["R4"],
                                f"rdim = {w.value}")
                b.tighten_upper(w.value - (n - rk_z), "R4", CITE["R4"],
                                f"rdim {w.value}, {n} components, "
                                f"scalar-center rank {rk_z}")
            except SearchBudgetExceeded:
                pass
        elif (f.characteristic == 0 or g.order % f.characteristic != 0):
            # a faithful doubly transitive permutation action gives an
            # absolutely irreducible faithful summand of degree (points - 1)
            # defined over the prime field
            deg = _two_transitive_degree(g)
            if deg is not None:
                b.tighten_upper(deg - 1, "R4", CITE["R4"],
                                f"doubly transitive on {deg} points")
                b.tighten_upper((deg - 1) - (1 - rk_z), "R4", CITE["R4"],
                                f"doubly transitive on {deg} points, one "
                                f"component, scalar-center rank {rk_z}")

    # R5: exactness for central prime-power socle with gcd=min degrees.
    # Splitting implies semi-faithfulness, so R4 has run rdim, by path A
    # (central prime-power socle), which has no search budget: w is its witness
    if supports_splitting(g, f):
        soc = g.socle()
        p = prime_power_base(soc.order)
        if p is not None and soc.is_central() and has_primitive_root(f, p):
            table = character_table(g)
            if gcd_min_condition(table, f, soc):
                b.tighten_lower(w.value, "R5", CITE["R5"],
                                f"socle central {p}-group, gcd=min, "
                                f"rdim = {w.value}")
                b.tighten_upper(w.value, "R5", CITE["R5"],
                                f"socle central {p}-group, gcd=min, "
                                f"rdim = {w.value}")
    if b.exact:
        return b.result()

    # R6 / R7: central-subgroup cancellation (R7 = product-with-abelian case)
    if _depth < MAX_RECURSION:
        _apply_central_transfers(g, f, b, rk_z, facts, subgroups, _depth, seen)
    if b.exact:
        return b.result()

    # R8: subgroup lower bounds
    if _depth < MAX_RECURSION and (
            f.characteristic == 0 or g.order % f.characteristic != 0):
        _apply_subgroup_bounds(g, f, b, rk_z, facts, subgroups, _depth, seen)
    if b.exact:
        return b.result()

    # R9: product upper bound for explicit direct products
    if _depth < MAX_RECURSION and g.factors is not None:
        g1, g2 = g.factors
        if g1.fingerprint() not in seen and g2.fingerprint() not in seen:
            e1 = edim(g1, f, facts, subgroups, _depth + 1, seen)
            e2 = edim(g2, f, facts, subgroups, _depth + 1, seen)
            if e1.upper is not None and e2.upper is not None:
                rk1 = k_center_rank(g1, f)
                rk2 = k_center_rank(g2, f)
                b.tighten_upper(e1.upper + e2.upper - rk1 - rk2 + rk_z,
                                "R9", CITE["R9"],
                                f"factors bounded by {e1.upper} and {e2.upper}")

    # R10: central elementary abelian p-subgroup in characteristic p
    if _depth < MAX_RECURSION and f.characteristic > 0:
        _apply_char_p_estimate(g, f, b, facts, subgroups, _depth, seen)

    return b.result()


def _two_transitive_degree(g: FiniteGroup) -> Optional[int]:
    """Degree of a faithful doubly transitive natural permutation action."""
    if g.perms is None:
        return None
    if is_two_transitive(g):
        return len(g.perms[0])
    return None


def _central_candidates(g: FiniteGroup) -> list[Subgroup]:
    """Nontrivial central subgroups meeting the commutator trivially."""
    z = g.center()
    if z.order == 1:
        return []
    zg, zmap = z.as_group()
    back = dict(enumerate(zmap))
    comm = g.commutator_subgroup().elements
    out = []
    try:
        subs = all_subgroups(zg)
    except Exception:
        return []
    for s in subs:
        elems = frozenset(back[x] for x in s)
        if len(elems) == 1:
            continue
        if elems & comm != frozenset([0]):
            continue
        out.append(Subgroup(g, elems, normal=True))
    # largest first: the biggest cancellation usually decides the value
    out.sort(key=lambda h: (-len(h.elements), sorted(h.elements)))
    return out


def _apply_central_transfers(g, f, b, rk_z, facts, subgroups, depth, seen):
    for h in _central_candidates(g):
        try:
            check_transfer_hypotheses(g, h, f)
        except HypothesisFailed:
            continue
        qm = g.quotient(h)
        q = qm.target
        if q.fingerprint() in seen:
            continue
        rk_q = k_center_rank(q, f)
        # is this the direct-abelian-factor special case?
        rule = "R6"
        detail = f"central subgroup of order {h.order}"
        if g.factors is not None:
            g1, g2 = g.factors
            n2 = g2.order
            right_factor = frozenset(range(n2))
            left_factor = frozenset(a * n2 for a in range(g1.order))
            if (g2.is_abelian() and h.elements == right_factor
                    and has_primitive_root(f, g2.exponent())) or \
               (g1.is_abelian() and h.elements == left_factor
                    and has_primitive_root(f, g1.exponent())):
                rule = "R7"
                detail = f"direct abelian factor of order {h.order}"
        eq = edim(q, f, facts, subgroups, depth + 1, seen)
        shift = rk_z - rk_q
        b.tighten_lower(eq.lower + shift, rule, CITE[rule],
                        detail + f"; quotient lower {eq.lower}, shift {shift}")
        if eq.upper is not None:
            b.tighten_upper(eq.upper + shift, rule, CITE[rule],
                            detail + f"; quotient upper {eq.upper}, shift {shift}")
        break  # the largest admissible cancellation suffices


def _apply_subgroup_bounds(g, f, b, rk_z, facts, subgroups, depth, seen):
    candidates: list[frozenset] = []
    if subgroups == "all" and g.order <= SUBGROUP_LATTICE_LIMIT:
        candidates = [s for s in all_subgroups(g) if 1 < len(s) < g.order]
    else:
        seen_sets = set()
        for x in g.elements():
            if x == 0:
                continue
            s = g.subgroup_closure([x])
            if len(s) < g.order and s not in seen_sets:
                seen_sets.add(s)
                candidates.append(s)
    for elems in candidates:
        h = Subgroup(g, elems)
        hg, _ = h.as_group()
        if hg.fingerprint() in seen:
            continue
        eh = edim(hg, f, facts, subgroups="cyclic", _depth=depth + 1, _seen=seen)
        rk_h = k_center_rank(hg, f)
        bound = eh.lower - rk_h + rk_z
        if bound > b.lower:
            b.tighten_lower(bound, "R8", CITE["R8"],
                            f"subgroup of order {hg.order}: lower {eh.lower}, "
                            f"rk Z(H,k) {rk_h}, rk Z(G,k) {rk_z}")


def _apply_char_p_estimate(g, f, b, facts, subgroups, depth, seen):
    p = f.characteristic
    z = g.center()
    elems = frozenset(x for x in z.elements if g.power(x, p) == 0)
    if len(elems) == 1:
        return
    a = Subgroup(g, elems, normal=True)
    qm = g.quotient(a)
    q = qm.target
    if q.fingerprint() in seen:
        return
    eq = edim(q, f, facts, subgroups, depth + 1, seen)
    b.tighten_lower(eq.lower, "R10", CITE["R10"],
                    f"quotient by central elementary abelian {p}-group of "
                    f"order {a.order}: lower {eq.lower}")
    if eq.upper is not None:
        b.tighten_upper(eq.upper + 1, "R10", CITE["R10"],
                        f"quotient upper {eq.upper} plus one")


# ---------------------------------------------------------------------------
# covariant dimension


def covdim(g: FiniteGroup, f: FieldDescriptor,
           facts: Optional[FactStore] = None,
           subgroups: str = "cyclic") -> EdimResult:
    """Certified interval for the covariant dimension of g over f."""
    if g.order == 1:
        return EdimResult(0, 0, [("R1", CITE["R1"], "|G| = 1", "exact 0")],
                          f.spec())
    if not is_semi_faithful(g, f):
        raise NotSemiFaithful(
            "covariant dimension comparison requires a completely reducible "
            "faithful representation")
    e = edim(g, f, facts, subgroups)
    z_nontrivial = k_center(g, f).order > 1
    if z_nontrivial:
        trace = e.trace + [("COV", CITE["COV"],
                            "scalar center nontrivial", "covdim = edim")]
        return EdimResult(e.lower, e.upper, trace, f.spec(), e.conjectural_value)
    trace = e.trace + [("COV", CITE["COV"],
                        "scalar center trivial", "covdim = edim + 1")]
    upper = None if e.upper is None else e.upper + 1
    return EdimResult(e.lower + 1, upper, trace, f.spec(), e.conjectural_value)


# ---------------------------------------------------------------------------
# conjectural closed formula for central socles


@dataclass
class ConjecturalValue:
    value: int
    conjectural: bool
    per_prime: dict  # p -> (dim V_p, rank of the p-part)
    socle_rank: int


def conjectural_edim(g: FiniteGroup, f: FieldDescriptor) -> ConjecturalValue:
    """Flagged closed-formula value for groups with central socle.

    Sums per-prime minimal faithful dimensions on the socle's primary parts,
    subtracting each part's rank, plus the socle rank.  Only its upper-bound
    direction is unconditional; the value itself is conjectural and is never
    merged into certified intervals.
    """
    if g.order == 1:
        raise HypothesisFailed("group is nontrivial")
    soc = g.socle()
    if not soc.is_central():
        raise HypothesisFailed("socle is central")
    if not supports_splitting(g, f):
        raise HypothesisFailed("field splits the group")
    primes = [p for p, _ in factorize(soc.order)]
    for p in primes:
        if not has_primitive_root(f, p):
            raise HypothesisFailed(f"k contains a primitive {p}-th root of unity")
    table = character_table(g)
    total = 0
    per_prime = {}
    for p in primes:
        part = Subgroup(g, frozenset(
            x for x in soc.elements
            if x == 0 or prime_power_base(g.element_order(x)) == p),
            normal=True)
        if not gcd_min_condition(table, f, part):
            raise HypothesisFailed(
                f"gcd=min degree condition on the {p}-part of the socle")
        rd = restriction_data(table, part)
        mb = minimal_basis(rd.st.divisors, rd.f, rd.f_row)
        dim_vp = sum(mb.f_values)
        rk_p = len(rd.st.divisors)
        per_prime[p] = (dim_vp, rk_p)
        total += dim_vp - rk_p
    soc_rank = structure(soc).rank()
    return ConjecturalValue(total + soc_rank, True, per_prime, soc_rank)

