"""Constructors for named small groups and the group-file JSON format.

Supported names: Cn (cyclic), Dn (dihedral of order 2n), Sn (symmetric),
An (alternating), Qn (generalized quaternion / dicyclic of order n),
Heis3 (extraspecial group of order 27 and exponent 3), CmxCn... via
"product" specs, and 2A8 (the double cover of A8, shipped as a fixture).
"""

from __future__ import annotations

import json
import re
from importlib import resources
from pathlib import Path

from .errors import ParseError
from .groups import FiniteGroup, direct_product, from_generators, from_table


def cycles_to_perm(cycles: list[list[int]], degree: int) -> list[int]:
    perm = list(range(degree))
    for cyc in cycles:
        if not isinstance(cyc, list) or not all(isinstance(a, int) for a in cyc):
            raise ParseError(f"cycle {cyc!r} is not a list of points")
        for i, a in enumerate(cyc):
            b = cyc[(i + 1) % len(cyc)]
            if not (0 <= a < degree):
                raise ParseError(f"cycle point {a} outside degree {degree}")
            perm[a] = b
    if sorted(perm) != list(range(degree)):
        raise ParseError("cycles do not define a permutation")
    return perm


def cyclic(n: int) -> FiniteGroup:
    if n == 1:
        return from_generators([], degree=1, name="C1")
    gen = list(range(1, n)) + [0]
    return from_generators([gen], degree=n, name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on n points (n >= 3); D1 = C2 and
    D2 = Klein four."""
    if n == 1:
        return from_generators([[1, 0]], degree=2, name="D1")
    if n == 2:
        return from_generators([[1, 0, 2, 3], [0, 1, 3, 2]], degree=4, name="D2")
    rot = list(range(1, n)) + [0]
    ref = [(-i) % n for i in range(n)]
    return from_generators([rot, ref], degree=n, name=f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    if n == 1:
        return from_generators([], degree=1, name="S1")
    gens = [[1, 0] + list(range(2, n))]
    if n > 2:
        gens.append(list(range(1, n)) + [0])
    return from_generators(gens, degree=n, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n < 3:
        return from_generators([], degree=max(n, 1), name=f"A{n}")
    three = cycles_to_perm([[0, 1, 2]], n)
    if n == 3:
        gens = [three]
    elif n % 2 == 1:
        gens = [three, cycles_to_perm([list(range(n))], n)]
    else:
        gens = [three, cycles_to_perm([list(range(1, n))], n)]
    return from_generators(gens, degree=n, name=f"A{n}")


def quaternion(n: int = 8) -> FiniteGroup:
    """Dicyclic group of order n (n = 4m, Q8 = usual quaternion group)."""
    if n % 4 != 0:
        raise ParseError(f"dicyclic order must be divisible by 4, got {n}")
    m = n // 2
    # elements a^i b^j with a of order m=n/2, b^2 = a^(m/2), b a b^-1 = a^-1
    elems = [(i, j) for j in range(2) for i in range(m)]

    def mul(x, y):
        (i1, j1), (i2, j2) = x, y
        if j1 == 0:
            i, j = (i1 + i2) % m, j2
        else:
            i, j = (i1 - i2) % m, 1 - j2
            if j2 == 1:
                i = (i + m // 2) % m
        return (i, j)

    return from_table(elems, mul, name=f"Q{n}", gens=[(1, 0), (0, 1)])


def heisenberg3() -> FiniteGroup:
    """Extraspecial group of order 27 and exponent 3 (upper unitriangular 3x3 over F3)."""
    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]

    def mul(x, y):
        (a1, b1, c1), (a2, b2, c2) = x, y
        return ((a1 + a2) % 3, (b1 + b2) % 3, (c1 + c2 + a1 * b2) % 3)

    return from_table(elems, mul, name="Heis3", gens=[(1, 0, 0), (0, 1, 0)])


def _fixture_path(name: str) -> Path:
    return Path(str(resources.files("edimkit") / "fixtures" / name))


def double_cover_a8() -> FiniteGroup:
    """The order-40320 perfect central extension of A8, from its fixture file."""
    with open(_fixture_path("2a8.json")) as fh:
        return group_from_json(json.load(fh))


_NAMED = {
    "Heis3": heisenberg3,
    "2A8": double_cover_a8,
    "Klein": lambda: dihedral(2),
}


def named_group(name: str) -> FiniteGroup:
    if name in _NAMED:
        return _NAMED[name]()
    if "x" in name:
        parts = name.split("x")
        g = named_group(parts[0])
        for p in parts[1:]:
            g = direct_product(g, named_group(p))
        return g
    m = re.fullmatch(r"([CDSAQ])(\d+)", name)
    if not m:
        raise ParseError(f"unknown group name {name!r}")
    kind, n = m.group(1), int(m.group(2))
    if n < 1:
        raise ParseError(f"bad group parameter in {name!r}")
    if kind == "C":
        return cyclic(n)
    if kind == "D":
        # Dn here means order 2n
        return dihedral(n)
    if kind == "S":
        return symmetric(n)
    if kind == "A":
        return alternating(n)
    return quaternion(n)


def group_from_json(spec: dict) -> FiniteGroup:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError("group spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "permutation":
        degree = spec.get("degree")
        gens = spec.get("generators")
        if not isinstance(degree, int) or degree < 1:
            raise ParseError("permutation spec needs a positive integer 'degree'")
        if not isinstance(gens, list):
            raise ParseError("permutation spec needs a 'generators' list of cycle lists")
        perms = []
        for g in gens:
            if not isinstance(g, list):
                raise ParseError("each generator must be an image list or a cycle list")
            if g and all(isinstance(x, int) for x in g):
                # one-line image list (must cover 0..degree-1)
                if sorted(g) != list(range(degree)):
                    raise ParseError("one-line permutation is not a bijection")
                perms.append(tuple(g))
            else:
                perms.append(cycles_to_perm(g, degree))
        return from_generators(perms, degree=degree)
    if kind == "named":
        if "product" in spec:
            parts = spec["product"]
            if not isinstance(parts, list) or len(parts) < 2:
                raise ParseError("'product' must list at least two group specs")
            g = group_from_json(parts[0])
            for part in parts[1:]:
                g = direct_product(g, group_from_json(part))
            return g
        name = spec.get("name")
        if not isinstance(name, str):
            raise ParseError("named spec needs a 'name' string")
        return named_group(name)
    raise ParseError(f"unknown group kind {kind!r}")


def load_group(path: str) -> FiniteGroup:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON in {path}: {e}") from e
    return group_from_json(spec)
