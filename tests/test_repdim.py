"""Minimal faithful representations: component counts, rdim paths, transfer."""

import itertools
import math

import pytest

from edimkit.chartab import character_table
from edimkit.cyclo import Cyclotomic
from edimkit.abelian import structure
from edimkit.errors import HypothesisFailed, NotSemiFaithful, OutOfScope
from edimkit.fields import (
    algebraically_closed,
    cyclotomic_field,
    rationals,
)
from edimkit.engine import edim
from edimkit.groups import FiniteGroup, Subgroup, all_subgroups, direct_product
from edimkit.named import corpus, named_group
from edimkit.repdim import (
    _direct_factor_exponent,
    central_ext_rdim,
    check_transfer_hypotheses,
    min_components,
    min_components_oracle,
    minimal_basis,
    rdim,
    restriction_data,
)

KBAR = algebraically_closed(0)


def test_min_components_examples():
    assert min_components(named_group("S3"), rationals()) == 1
    assert min_components(named_group("C2xC2xC2"), rationals()) == 3
    assert min_components(named_group("Q8"), rationals()) == 1
    assert min_components(named_group("Q8xC2"), KBAR) == 2


def test_min_components_gate():
    with pytest.raises(NotSemiFaithful):
        min_components(named_group("Q8"), algebraically_closed(2))


def test_min_components_oracle_examples():
    assert min_components_oracle(named_group("S3"), KBAR) == 1
    assert min_components_oracle(named_group("C2xC2"), KBAR) == 2
    assert min_components_oracle(named_group("Q8xC2"), KBAR) == 2


def test_min_components_matches_oracle_on_corpus():
    for name, g in corpus().items():
        assert min_components(g, KBAR) == min_components_oracle(g, KBAR), name


def test_minimal_basis_rank_one():
    mb = minimal_basis([2], lambda c: 1 if c == (0,) else 2)
    assert mb.basis == [(1,)]
    assert mb.f_values == [2]


def test_minimal_basis_axis_cheaper_than_product():
    # rank-2 elementary abelian with cheap axis characters
    def f(c):
        return {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 4}[c]

    mb = minimal_basis([2, 2], f)
    assert mb.f_values == [2, 2]
    assert set(mb.basis) == {(1, 0), (0, 1)}


def test_minimal_basis_constant_tie_break():
    mb = minimal_basis([3], lambda c: 3)
    assert mb.f_values == [3]
    assert mb.basis == [(0, 1)] or mb.basis == [(1, 0)] or mb.basis == [(1,)]


def test_minimal_basis_f_vector_tie_invariant():
    # different tie-breaking orders must give the same f-value vector
    def f1(c):
        return 2

    mb1 = minimal_basis([2, 2], f1)

    def f2(c):
        return 2

    mb2 = minimal_basis([2, 2], lambda c: f2(tuple(reversed(c))))
    assert mb1.f_values == mb2.f_values


@pytest.mark.parametrize("name,field,value,vector", [
    ("Q8", cyclotomic_field(4), 2, [2]),
    ("D4", cyclotomic_field(4), 2, [2]),
    ("Heis3", cyclotomic_field(3), 3, [3]),
    ("C2xC4", cyclotomic_field(4), 2, [1, 1]),
    ("S3", cyclotomic_field(6), 2, [2]),
    ("S4", KBAR, 3, [3]),
])
def test_rdim_values(name, field, value, vector):
    w = rdim(named_group(name), field)
    assert w.value == value
    assert w.dimension_vector == vector


def test_rdim_requires_splitting():
    with pytest.raises(OutOfScope):
        rdim(named_group("S3"), rationals())


def test_rdim_paths_agree_on_corpus():
    for name, g in corpus().items():
        w = rdim(g, KBAR)
        wc = rdim(g, KBAR, force_path="C")
        assert w.value == wc.value, name
        if g.socle().is_abelian():
            wb = rdim(g, KBAR, force_path="B")
            assert wb.value == w.value, name


def test_rdim_product_additivity():
    # socle-central-p pairs: rdim of the product is the sum
    pairs = [("Q8", "D4", cyclotomic_field(4)),
             ("Q8", "Q8", cyclotomic_field(4)),
             ("D4", "D4", cyclotomic_field(4))]
    for n1, n2, fld in pairs:
        g1, g2 = named_group(n1), named_group(n2)
        prod = direct_product(g1, g2)
        assert rdim(prod, fld).value == rdim(g1, fld).value + rdim(g2, fld).value


def test_rdim_witness_dimension_vector_unique():
    # two runs produce identical dimension vectors
    g = named_group("Q8xD4")
    w1 = rdim(g, cyclotomic_field(4))
    w2 = rdim(g, cyclotomic_field(4))
    assert w1.dimension_vector == w2.dimension_vector == [2, 2]


def test_restriction_data_q8():
    g = named_group("Q8")
    t = character_table(g, use_cache=False)
    rd = restriction_data(t, g.socle())
    # nontrivial character of the central C2 appears only in the 2-dim row
    assert rd.f((1,)) == 2
    assert rd.f((0,)) == 1


def cyclotomic_restriction(table, a):
    """Reference: rows containing each character of a, by cyclotomic sums."""
    st = structure(a)
    e, cmap = table.conductor, table.group.class_map()
    values = table.cyclotomic_values()
    out = []
    for row in values:
        found = set()
        for ct in itertools.product(*[range(d) for d in st.divisors]):
            acc = Cyclotomic.zero(e)
            for x in a.elements:
                t = sum(c * v * (e // d) for c, v, d in
                        zip(ct, st.to_vector(x), st.divisors))
                acc = acc + row[cmap[x]] * Cyclotomic.zeta_power(e, -t % e)
            if not acc.is_zero():
                found.add(ct)
        out.append(frozenset(found))
    return out


@pytest.mark.parametrize("name", sorted(corpus()))
def test_restriction_data_agrees_with_values(name):
    g = corpus()[name]
    t = character_table(g, use_cache=False)
    soc = g.socle()
    for a in [g.center()] + ([soc] if soc.is_abelian() else []):
        assert restriction_data(t, a).row_chars == cyclotomic_restriction(t, a)


def test_transfer_identity_c4():
    g = named_group("C4")
    h = Subgroup(g, frozenset([0, 2]), normal=True)
    k4 = cyclotomic_field(4)
    rep = central_ext_rdim(g, h, k4, "quotient", 1)
    assert rep.equality
    assert rep.rk_z_group == 1 and rep.rk_z_quotient == 1
    assert rep.transferred_value == 1
    assert rep.quotient_rank_identity


def test_transfer_q8xc4():
    g = named_group("Q8xC4")
    k4 = cyclotomic_field(4)
    # H = the order-2 subgroup inside the C4 factor
    elem = next(x for x in range(4) if g.element_order(x) == 2)
    h = Subgroup(g, frozenset([0, elem]), normal=True)
    q = g.quotient(h).target
    rep = central_ext_rdim(g, h, k4, "quotient", rdim(q, k4).value)
    assert rep.equality  # socle of Q8xC4 is the central C2xC2
    assert rep.transferred_value == rdim(g, k4, force_path="C").value
    assert rep.quotient_rank_identity


def test_transfer_hypothesis_failures():
    g = named_group("S3")
    a3 = g.socle()
    with pytest.raises(HypothesisFailed):
        # A3 is not central in S3
        check_transfer_hypotheses(g, a3, KBAR)
    q8 = named_group("Q8")
    z = q8.center()
    with pytest.raises(HypothesisFailed):
        # the center of Q8 meets the commutator subgroup
        check_transfer_hypotheses(q8, z, cyclotomic_field(4))


def _direct_factors(gab):
    """Oracle: every direct factor of an abelian group, with its exponent,
    found by searching the subgroup lattice for a complement."""
    subs = all_subgroups(gab)
    out = []
    for s in subs:
        comp_size = gab.order // len(s)
        if any(len(t) == comp_size and s & t == frozenset([0]) for t in subs):
            out.append((s, math.lcm(*(gab.element_order(x) for x in s))))
    return out


def _least_exponent_over(factors, image):
    return min(exp for s, exp in factors if image <= s)


def _factor_exponent_through_quotient(g, h):
    qm = g.quotient(g.commutator_subgroup())
    return _least_exponent_over(_direct_factors(qm.target),
                                frozenset(qm.projection[x] for x in h.elements))


# C2..C27, every Cm x Cn (2 <= m <= n) up to order 36, and three of rank 3
ABELIAN = [f"C{n}" for n in range(2, 28)] + \
    [f"C{m}xC{n}" for m in range(2, 7) for n in range(m, 19) if m * n <= 36] + \
    ["C2xC2xC4", "C2xC4xC8", "C3xC3xC9"]


@pytest.mark.parametrize("name", ABELIAN)
def test_direct_factor_exponent_matches_the_lattice_search(name):
    a = named_group(name)
    factors = _direct_factors(a)
    for b in all_subgroups(a):
        assert _direct_factor_exponent(a, b) == \
            _least_exponent_over(factors, b), sorted(b)


@pytest.mark.parametrize("name", sorted(corpus()))
def test_transfer_exponent_matches_the_abelianization(name):
    g = corpus()[name]
    comm = g.commutator_subgroup().elements
    for z in sorted(g.center().elements):
        h = Subgroup(g, g.subgroup_closure([z]), normal=True)
        if h.elements & comm == frozenset([0]):
            assert check_transfer_hypotheses(g, h, KBAR) == \
                _factor_exponent_through_quotient(g, h)


@pytest.mark.parametrize("name,n", [("S3xC101", 101), ("S3xC128", 128)])
def test_transfer_check_on_an_abelianization_above_the_lattice_limit(name, n):
    # G^ab = C2 x Cn has order above the subgroup-lattice limit of 200
    r = edim(named_group(name), cyclotomic_field(n))
    assert r.exact and r.lower == 2
    assert any(t[0] == "R7" for t in r.trace)


def test_transfer_of_abelian_group_builds_no_quotient(monkeypatch):
    calls = []
    quotient = FiniteGroup.quotient

    def counting(self, n):
        calls.append(n)
        return quotient(self, n)

    monkeypatch.setattr(FiniteGroup, "quotient", counting)
    g = named_group("C2xC4")
    assert g.is_abelian()
    h = Subgroup(g, frozenset(g.elements()), normal=True)
    assert check_transfer_hypotheses(g, h, cyclotomic_field(4)) == 4
    assert calls == []


def test_trivial_group_rdim():
    from edimkit.named import cyclic

    g = cyclic(1)
    w = rdim(g, KBAR)
    assert w.value == 0 and w.component_rows == []
