"""Field descriptors: characteristic plus a decidable root-of-unity predicate.

A descriptor never does field arithmetic; it only answers "is a primitive n-th
root of unity present?", which drives the scalar-center computation,
semi-faithfulness, and the splitting gate for character-degree arguments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .abelian import rank
from .errors import InternalInconsistency, ParseError
from .groups import FiniteGroup, Subgroup
from .ntheory import is_prime, prime_power_base

ALL = "all"
CYCLOTOMIC = "cyclotomic"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class FieldDescriptor:
    characteristic: int  # 0 or a prime
    kind: str  # ALL | CYCLOTOMIC | EXPLICIT
    cyclotomic_order: int = 0  # for CYCLOTOMIC, normalized even
    explicit_orders: frozenset = frozenset()  # for EXPLICIT, divisor-closed

    def spec(self) -> str:
        """Round-trippable field string."""
        if self.kind == ALL:
            return f"algclosed:{self.characteristic}"
        if self.kind == CYCLOTOMIC:
            if self.cyclotomic_order == 2:
                return "Q"
            return f"Q(zeta_{self.cyclotomic_order})"
        orders = ",".join(str(n) for n in sorted(self.explicit_orders))
        return f"char={self.characteristic};zeta={orders}"

    def __str__(self):
        return self.spec()


def cyclotomic_field(m: int) -> FieldDescriptor:
    if m < 1:
        raise ParseError(f"invalid cyclotomic order {m}")
    if m % 2 == 1:
        m *= 2  # a primitive m-th root for odd m also yields a 2m-th root
    return FieldDescriptor(0, CYCLOTOMIC, cyclotomic_order=m)


def rationals() -> FieldDescriptor:
    return cyclotomic_field(2)


def algebraically_closed(char: int = 0) -> FieldDescriptor:
    return FieldDescriptor(char, ALL)


def explicit_field(char: int, orders) -> FieldDescriptor:
    closed = {1}
    for n in orders:
        if n < 1:
            raise ParseError(f"invalid root order {n}")
        if char > 0 and n % char == 0:
            raise ParseError(f"char {char} field cannot contain a primitive "
                             f"{n}-th root of unity")
        for d in range(1, n + 1):
            if n % d == 0:
                closed.add(d)
    return FieldDescriptor(char, EXPLICIT, explicit_orders=frozenset(closed))


def parse_field(s: str) -> FieldDescriptor:
    """Parse "Q" | "Q(zeta_m)" | "algclosed:c" | "char=p;zeta=n1,n2,..."."""
    s = s.strip()
    if s == "Q":
        return rationals()
    m = re.fullmatch(r"Q\(zeta_(\d+)\)", s)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ParseError("cyclotomic order must be positive", s.index(m.group(1)))
        return cyclotomic_field(n)
    m = re.fullmatch(r"algclosed:(\d+)", s)
    if m:
        c = int(m.group(1))
        if c != 0 and not is_prime(c):
            raise ParseError(f"characteristic {c} is not 0 or prime", len("algclosed:"))
        return algebraically_closed(c)
    m = re.fullmatch(r"char=(\d+);zeta=([\d,]*)", s)
    if m:
        c = int(m.group(1))
        if c != 0 and not is_prime(c):
            raise ParseError(f"characteristic {c} is not 0 or prime", len("char="))
        orders = [int(t) for t in m.group(2).split(",") if t]
        return explicit_field(c, orders)
    raise ParseError(f"unrecognized field spec {s!r}", 0)


def has_primitive_root(f: FieldDescriptor, n: int) -> bool:
    """Whether a primitive n-th root of unity lies in the field."""
    if n < 1:
        raise ParseError(f"root order must be positive, got {n}")
    if n == 1:
        return True
    if f.characteristic > 0 and n % f.characteristic == 0:
        return False
    if f.kind == ALL:
        return True
    if f.kind == CYCLOTOMIC:
        return f.cyclotomic_order % n == 0
    return n in f.explicit_orders


def k_center(g: FiniteGroup, f: FieldDescriptor) -> Subgroup:
    """Central elements whose order has a primitive root of unity in the field.

    Memoized on the group per field.
    """
    sub = g._k_centers.get(f)
    if sub is not None:
        return sub
    z = g.center()
    elems = frozenset(
        x for x in z.elements if has_primitive_root(f, g.element_order(x))
    )
    sub = Subgroup(g, elems, normal=True)
    # closure sanity: the scalar-center must itself be a subgroup
    got = g.subgroup_closure(sorted(elems))
    if got != elems:
        raise InternalInconsistency("scalar center failed to be a subgroup")
    g._k_centers[f] = sub
    return sub


def k_center_rank(g: FiniteGroup, f: FieldDescriptor) -> int:
    return rank(k_center(g, f))


def is_semi_faithful(g: FiniteGroup, f: FieldDescriptor) -> bool:
    """Whether the group has a faithful completely reducible representation.

    Always true in characteristic 0; in characteristic p it fails exactly when
    some nontrivial normal p-subgroup exists, i.e. some foot is a p-group.
    """
    p = f.characteristic
    if p == 0 or g.order == 1:
        return True
    return all(prime_power_base(foot.order) != p for foot in g.feet())


def supports_splitting(g: FiniteGroup, f: FieldDescriptor) -> bool:
    """Gate under which irreducible degrees over the field match the complex ones."""
    if f.characteristic > 0 and g.order % f.characteristic == 0:
        return False
    return has_primitive_root(f, g.exponent())
