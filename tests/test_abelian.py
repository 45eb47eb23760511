"""Abelian-module machinery: structure, duality, module ranks."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from edimkit.abelian import (
    GModule,
    cyclic_submodules,
    dual_module,
    generating_tuples_count,
    module_from_subgroup,
    pairing,
    rank,
    rank_zg,
    structure,
    submodule_span,
)
from edimkit.groups import Subgroup, all_subgroups, direct_product
from edimkit.named import cyclic, named_group
from edimkit.snf import smith_normal_form
from oracles import corpus, from_vector, mat_mul


def whole(g):
    return Subgroup(g, frozenset(g.elements()), normal=True)


# ---------------------------------------------------------------------------
# Smith normal form


@pytest.mark.parametrize("mat,divs", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[1, 0], [0, 1]], [1, 1]),
    ([[2, 4], [4, 8]], [2, 0]),
    ([[6]], [6]),
    ([[0, 0], [0, 0]], [0, 0]),
    ([[2, 3], [3, 2]], [1, 5]),
])
def test_snf_examples(mat, divs):
    d, p, q, _ = smith_normal_form(mat)
    assert mat_mul(mat_mul(p, mat), q) == d
    got = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    assert [abs(x) for x in got] == divs


def test_snf_divisibility_chain_random():
    import random

    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, p, q, _ = smith_normal_form(mat)
        assert mat_mul(mat_mul(p, mat), q) == d
        diag = [abs(d[i][i]) for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
        # off-diagonal zero
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


# ---------------------------------------------------------------------------
# structure of abelian subgroups


@pytest.mark.parametrize("name,divs", [
    ("C12", [12]),
    ("C2xC2", [2, 2]),
    ("C2xC4", [2, 4]),
    ("C2xC2xC3", [2, 6]),
    ("C3xC3", [3, 3]),
    ("C2xC2xC2", [2, 2, 2]),
])
def test_structure_divisors(name, divs):
    g = named_group(name)
    st = structure(whole(g))
    assert st.divisors == divs
    # coordinates are a bijection respecting addition
    seen = set()
    for x in g.elements():
        v = st.to_vector(x)
        assert from_vector(st, v) == x
        seen.add(v)
    assert len(seen) == g.order
    for x in g.elements():
        for y in g.elements():
            assert tuple((a + b) % d for a, b, d in zip(
                st.to_vector(x), st.to_vector(y), st.divisors)) == \
                st.to_vector(g.mult(x, y))



def test_rank_matches_structure_on_every_abelian_subgroup():
    groups = dict(corpus())
    for name in ["C2xC2xC2xC2", "C3xC3xC3", "C5xC5xC5", "C4xC2xC2", "C6xC6"]:
        groups[name] = named_group(name)
    checked = 0
    for name, g in groups.items():
        for elems in all_subgroups(g):
            a = Subgroup(g, elems)
            if a.is_abelian():
                assert rank(a) == len(structure(a).divisors), (name, sorted(elems))
                checked += 1
    assert checked > 300


@settings(max_examples=60, deadline=None)
@given(orders=hst.lists(hst.integers(1, 12), min_size=1, max_size=4)
       .filter(lambda ns: math.prod(ns) <= 600))
def test_rank_of_a_product_of_cyclic_groups(orders):
    # the rank of C_n1 x ... x C_nk is the largest number of the n_i that one
    # prime divides
    g = cyclic(orders[0])
    for n in orders[1:]:
        g = direct_product(g, cyclic(n))
    primes = {p for p in range(2, 13) if any(n % p == 0 for n in orders)}
    expected = max((sum(n % p == 0 for n in orders) for p in primes), default=0)
    assert rank(whole(g)) == expected


def test_module_action_is_conjugation():
    g = named_group("S3")
    a = g.socle()  # C3, swapped by reflections
    m = module_from_subgroup(g, a)
    st = m.base
    for gi, gen in enumerate(g.generators):
        for x in sorted(a.elements):
            conj = g.mult(g.mult(gen, x), g.inv(gen))
            assert m.act(gi, st.to_vector(x)) == st.to_vector(conj)


def brute_rank_zg(m):
    """Smallest r with some r-tuple generating the module."""
    vecs = list(m.all_vectors())
    full = frozenset(vecs)
    for r in range(0, len(m.divisors) + 1):
        for combo in itertools.combinations(vecs, r):
            if submodule_span(m, list(combo)) == full:
                return r
    raise AssertionError("module not generated by itself")


def test_rank_zg_against_bruteforce_corpus():
    for name, g in corpus().items():
        a = g.socle_abelian()
        if a.order <= 16 and a.order > 1:
            m = module_from_subgroup(g, a)
            assert rank_zg(m) == brute_rank_zg(m), name


def test_rank_zg_examples():
    s3 = named_group("S3")
    assert rank_zg(module_from_subgroup(s3, s3.socle())) == 1
    k4 = named_group("C2xC2")
    assert rank_zg(module_from_subgroup(k4, whole(k4))) == 2
    q8 = named_group("Q8")
    assert rank_zg(module_from_subgroup(q8, q8.socle())) == 1


def test_dual_module_pairing_is_perfect():
    for name in ["S3", "C12", "D4", "A4", "C2xC4"]:
        g = named_group(name)
        a = g.socle_abelian()
        if a.order == 1:
            continue
        m = module_from_subgroup(g, a)
        d = dual_module(m)
        # distinct characters give distinct value vectors
        rows = set()
        for chi in d.all_vectors():
            rows.add(tuple(pairing(m, chi, v) for v in m.all_vectors()))
        assert len(rows) == d.order


def test_duality_preserves_rank_and_tuple_counts():
    """rank and generating-tuple counts agree between a module and its dual."""
    for name, g in corpus().items():
        a = g.socle_abelian()
        if not (1 < a.order <= 64):
            continue
        m = module_from_subgroup(g, a)
        d = dual_module(m)
        assert rank_zg(m) == rank_zg(d), name
        for r in range(1, 4):
            assert generating_tuples_count(m, r) == \
                generating_tuples_count(d, r), (name, r)


def test_generating_tuples_count_bruteforce():
    g = named_group("C2xC2")
    m = module_from_subgroup(g, whole(g))
    vecs = list(m.all_vectors())
    full = frozenset(vecs)
    for r in (1, 2, 3):
        brute = sum(1 for combo in itertools.product(vecs, repeat=r)
                    if submodule_span(m, list(combo)) == full)
        assert generating_tuples_count(m, r) == brute


def test_cyclic_submodules_cover():
    g = named_group("S3")
    m = module_from_subgroup(g, g.socle())
    subs, classes = cyclic_submodules(m)
    union = set()
    for s in subs:
        union |= s
    assert union == set(m.all_vectors())
