"""Group-core tests against brute-force oracles."""

import itertools

import pytest

from edimkit.errors import NotAbelian, NotNormal, ParseError
from edimkit.groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    direct_product,
    is_two_transitive,
)
from edimkit.named import (
    alternating,
    corpus,
    cyclic,
    dihedral,
    heisenberg3,
    named_group,
    quaternion,
    symmetric,
)


def normal_subgroups_bruteforce(g):
    """Every normal subgroup of a small group, from the whole lattice."""
    return [s for s in all_subgroups(g) if Subgroup(g, s).is_normal()]


def brute_center(g):
    return frozenset(x for x in g.elements()
                     if all(g.mult(x, y) == g.mult(y, x) for y in g.elements()))


def brute_classes(g):
    out = []
    left = set(g.elements())
    while left:
        x = min(left)
        cls = frozenset(g.conj(t, x) for t in g.elements())
        out.append(cls)
        left -= cls
    return sorted(out, key=min)


@pytest.mark.parametrize("name", ["C2", "C6", "S3", "S4", "A4", "Q8", "D4",
                                  "D6", "Heis3"])
def test_center_and_classes_against_bruteforce(name):
    g = named_group(name)
    assert g.center().elements == brute_center(g)
    assert g.conjugacy_classes() == brute_classes(g)


def test_orders_and_exponents():
    assert symmetric(4).order == 24
    assert alternating(5).order == 60
    assert quaternion(8).order == 8
    assert dihedral(7).order == 14
    assert heisenberg3().order == 27
    assert heisenberg3().exponent() == 3
    assert quaternion(8).exponent() == 4
    assert cyclic(12).exponent() == 12


def test_element_order_matches_naive_power():
    g = named_group("S4")
    for x in g.elements():
        n = 1
        y = x
        while y != 0:
            y = g.mult(y, x)
            n += 1
        assert g.element_order(x) == n


def test_commutator_subgroup_oracle():
    for name, expected in [("S3", 3), ("S4", 12), ("A4", 4), ("Q8", 2),
                           ("D4", 2), ("C12", 1)]:
        g = named_group(name)
        comms = {g.commutator(a, b) for a in g.elements() for b in g.elements()}
        closure = g.subgroup_closure(sorted(comms))
        assert g.commutator_subgroup().elements == closure, name
        assert g.commutator_subgroup().order == expected, name


def test_normal_closure_is_minimal_normal_over_seed():
    g = named_group("S4")
    # normal closure of a transposition is all of S4
    t = next(x for x in g.elements() if g.element_order(x) == 2
             and g.perms[x].tolist().count(0) + sum(
                 1 for i, v in enumerate(g.perms[x].tolist()) if v == i) >= 2)
    nc = g.normal_closure([t])
    assert nc.is_normal()
    assert t in nc.elements


@pytest.mark.parametrize("name,feet_orders,socle_order", [
    ("S3", [3], 3),
    ("S4", [4], 4),
    ("Q8", [2], 2),
    ("D4", [2], 2),
    ("A4", [4], 4),
    ("Heis3", [3], 3),
    ("C12", [3, 4], 6),  # feet C2 (inside C4) and C3
])
def test_feet_and_socle(name, feet_orders, socle_order):
    g = named_group(name)
    feet = g.feet()
    if name == "C12":
        assert sorted(f.order for f in feet) == [2, 3]
        assert g.socle().order == 6
    else:
        assert sorted(f.order for f in feet) == feet_orders or \
            g.socle().order == socle_order
        assert g.socle().order == socle_order
    # every foot is minimal normal: no proper nontrivial normal subgroup inside
    normals = normal_subgroups_bruteforce(g)
    for foot in feet:
        inside = [n for n in normals
                  if frozenset([0]) < n < foot.elements]
        assert not inside


def test_socle_abelian_vs_socle():
    g = named_group("S4")
    assert g.socle_abelian().elements == g.socle().elements
    a5 = alternating(5)
    # simple nonabelian: socle is the whole group, abelian socle is trivial
    assert a5.socle().order == 60
    assert a5.socle_abelian().order == 1


def test_quotient_q8_by_center_is_klein():
    g = named_group("Q8")
    qm = g.quotient(g.center())
    q = qm.target
    assert q.order == 4
    assert q.is_abelian()
    assert all(q.element_order(x) in (1, 2) for x in q.elements())
    # projection is a homomorphism
    for a in g.elements():
        for b in g.elements():
            assert qm.projection[g.mult(a, b)] == \
                q.mult(qm.projection[a], qm.projection[b])


def test_quotient_kernel_and_fiber():
    g = named_group("S4")
    n = g.normal_closure([next(x for x in g.elements()
                               if g.element_order(x) == 2)])
    # pick the Klein four normal subgroup
    v4 = next(s for s in normal_subgroups_bruteforce(g) if len(s) == 4)
    qm = g.quotient(Subgroup(g, v4))
    assert qm.target.order == 6
    assert qm.kernel().elements == v4
    for c in qm.target.elements():
        fib = qm.fiber(c)
        assert len(fib) == 4


def test_direct_product_embeddings_commute():
    g = direct_product(named_group("Q8"), named_group("C3"))
    assert g.order == 24
    n2 = 3
    for a in range(8):
        for b in range(3):
            left = a * n2
            right = b
            assert g.mult(left, right) == g.mult(right, left)


@pytest.mark.parametrize("left, right", [("S3", "Q8"), ("D4", "C3")])
def test_product_table_matches_pair_backend(left, right):
    g1, g2 = named_group(left), named_group(right)
    g = direct_product(g1, g2)
    n2 = g2.order

    def pair_mult(a, b):
        return g1.mult(a // n2, b // n2) * n2 + g2.mult(a % n2, b % n2)

    table = g.backend.table
    assert all(table[a, b] == pair_mult(a, b)
               for a in g.elements() for b in g.elements())


@pytest.mark.parametrize("name", ["S3xQ8", "D4xC3", "Q8xD4"])
def test_quotient_table_matches_quotient_backend(name):
    g = named_group(name)
    qm = g.quotient(g.center())
    proj = qm.projection
    # each coset is represented by its least element
    reps = [min(qm.fiber(c)) for c in qm.target.elements()]

    def coset_mult(a, b):
        return proj[g.mult(reps[a], reps[b])]

    table = qm.target.backend.table
    assert all(table[a, b] == coset_mult(a, b)
               for a in qm.target.elements() for b in qm.target.elements())


def test_subgroup_lattice_oracle_counts():
    # S3 has 6 subgroups; Q8 has 6; Klein four group has 5
    assert len(all_subgroups(named_group("S3"))) == 6
    assert len(all_subgroups(named_group("Q8"))) == 6
    assert len(all_subgroups(dihedral(2))) == 5


def test_two_transitivity():
    assert is_two_transitive(symmetric(3))
    assert is_two_transitive(symmetric(5))
    assert is_two_transitive(alternating(5))
    assert not is_two_transitive(cyclic(4))
    assert not is_two_transitive(dihedral(4))


def test_fingerprint_weak_is_presentation_independent():
    a = named_group("S3")
    b = dihedral(3)  # same abstract group, different construction
    assert a.fingerprint(with_generators=False) == \
        b.fingerprint(with_generators=False)
    assert a.fingerprint(with_generators=False) != \
        named_group("C6").fingerprint(with_generators=False)


def test_subgroup_helpers():
    g = named_group("Q8")
    z = g.center()
    assert z.is_central() and z.is_normal() and z.is_abelian()
    whole = Subgroup(g, frozenset(g.elements()))
    assert whole.intersection(z).elements == z.elements
    sg, elems = z.as_group()
    assert sg.order == z.order
    assert elems[0] == 0


def test_named_group_errors():
    with pytest.raises(ParseError):
        named_group("X7")
    with pytest.raises(ParseError):
        named_group("frobnicate")


def test_corpus_shape():
    c = corpus()
    assert len(c) == 20
    assert all(g.order <= 64 for g in c.values())
