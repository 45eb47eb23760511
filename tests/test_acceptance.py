"""End-to-end acceptance checks, one test per criterion with a time budget."""

import random
import time
from contextlib import contextmanager

import pytest

from edimkit.abelian import (
    dual_module,
    generating_tuples_count,
    module_from_subgroup,
    rank_zg,
    structure,
)
from edimkit.chartab import character_table, kernel
from edimkit.engine import FactStore, conjectural_edim, covdim, edim
from edimkit.fields import (
    algebraically_closed,
    cyclotomic_field,
    k_center,
    parse_field,
    rationals,
)
from edimkit.groups import Subgroup, all_subgroups
from edimkit.mhom import GradedPolyMap, Grading, OneParamSubgroup, homogenize
from edimkit.named import (
    alternating,
    corpus,
    load_group,
    named_group,
    symmetric,
)
from edimkit.poly import parse_polynomial
from edimkit.repdim import (
    central_ext_rdim,
    min_components,
    min_components_oracle,
    rdim,
)

KBAR = algebraically_closed(0)


@contextmanager
def budget(label, seconds):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    ok = dt <= seconds
    print(f"[{label}] {'PASS' if ok else 'FAIL'} ({dt:.2f}s, budget {seconds}s)")
    assert ok, f"{label} took {dt:.2f}s, budget {seconds}s"


def test_criterion_01_elementary_abelian_exact():
    for p in (2, 3, 5):
        for n in range(1, 5):
            name = "x".join([f"C{p}"] * n)
            with budget(f"criterion 1: {name}", 1):
                r = edim(named_group(name), cyclotomic_field(p))
                assert r.exact and r.lower == n, (p, n, r.as_dict())


def test_criterion_02_extraspecial_exact():
    cases = [("Q8", cyclotomic_field(4), 2),
             ("D4", cyclotomic_field(4), 2),
             ("Heis3", cyclotomic_field(3), 3)]
    for name, fld, expected in cases:
        with budget(f"criterion 2: {name}", 5):
            g = named_group(name)
            r = edim(g, fld)
            w = rdim(g, fld)
            assert r.exact and r.lower == expected, name
            assert w.value == expected, name


def test_criterion_03_s3_over_rationals():
    with budget("criterion 3: S3 over Q", 5):
        g = named_group("S3")
        r = edim(g, rationals())
        c = covdim(g, rationals())
        assert r.exact and r.lower == 1, r.as_dict()
        assert c.exact and c.lower == 2, c.as_dict()


def test_criterion_04_product_with_abelian_cross_check():
    with budget("criterion 4: Q8xC3 over Q(zeta_12)", 10):
        g = named_group("Q8xC3")
        f = cyclotomic_field(12)
        r = edim(g, f)
        assert r.exact and r.lower == 2, r.as_dict()
        assert any(t[0] == "R7" for t in r.trace)
        cj = conjectural_edim(g, f)
        assert cj.value == r.lower, (cj.value, r.lower)


def test_criterion_05_rdim_additivity_paths_agree():
    with budget("criterion 5: Q8xD4 over Q(zeta_4)", 30):
        f4 = cyclotomic_field(4)
        g = named_group("Q8xD4")
        wa = rdim(g, f4, force_path="A")
        wc = rdim(g, f4, force_path="C")
        assert wa.value == wc.value == 4
        assert wa.value == rdim(named_group("Q8"), f4).value + \
            rdim(named_group("D4"), f4).value
        assert sorted(wa.dimension_vector) == [2, 2]


def test_criterion_06_min_components_matches_oracle():
    with budget("criterion 6: component counts on corpus", 60):
        for name, g in corpus().items():
            assert min_components(g, KBAR) == \
                min_components_oracle(g, KBAR), name


def test_criterion_07_duality_invariants():
    with budget("criterion 7: module duality", 120):
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


def test_criterion_08_orthogonality():
    with budget("criterion 8: orthogonality", 60):
        groups = dict(corpus())
        groups["A5"] = alternating(5)
        groups["S5"] = symmetric(5)
        for name, g in groups.items():
            t = character_table(g)
            t.verify_orthogonality()
            assert sum(dd * dd for dd in t.degrees) == g.order, name


@pytest.mark.slow
def test_criterion_09_double_cover_of_a8():
    import os

    import edimkit

    path = os.path.join(os.path.dirname(edimkit.__file__),
                        "fixtures", "2a8.json")
    with budget("criterion 9: double cover of A8", 600):
        g = load_group(path)
        assert g.order == 40320
        t = character_table(g)
        faithful = [t.degrees[i] for i in range(t.n_classes)
                    if kernel(t, i).elements == frozenset([0])]
        assert faithful and all(d % 8 == 0 for d in faithful), faithful
        r = edim(g, KBAR)
        assert r.exact and r.lower == 8, r.as_dict()
        # literature interval for the simple quotient in characteristic 2
        # lifts to an interval one wider for the double cover
        f2 = parse_field("char=2;zeta=1")
        q = g.quotient(g.center()).target
        assert q.order == 20160
        store = FactStore()
        store.add(q.fingerprint(with_generators=False), f2.spec(), 2, 3,
                  "known interval for the simple quotient")
        r2 = edim(g, f2, facts=store)
        assert (r2.lower, r2.upper) == (2, 4), r2.as_dict()
        assert any(tr[0] == "R10" for tr in r2.trace)


def test_criterion_10_multihomogenization():
    from test_mhom import _random_map, assert_scaling_identity, _two_lambdas

    with budget("criterion 10: multihomogenization", 30):
        names = ["x", "y"]
        phi = GradedPolyMap(
            Grading((1, 1)), Grading((1, 1)),
            [parse_polynomial("x + x*y", names),
             parse_polynomial("y + x^2", names)],
            parse_polynomial("1", names))
        h, mat = homogenize(phi, OneParamSubgroup((1, 3)))
        assert h.numerators[0] == parse_polynomial("x", names)
        assert h.numerators[1] == parse_polynomial("x^2", names)
        assert mat.as_lists() == [[1, 2], [0, 0]] and mat.rank() == 1

        rng = random.Random(987654321)
        for trial in range(200):
            phi = _random_map(rng)
            h, mat = homogenize(phi)
            assert_scaling_identity(h, mat)
            h2, mat2 = homogenize(h)
            assert h2 == h and mat2.as_lists() == mat.as_lists(), trial
            for j in range(phi.target.n_blocks):
                zero = all(p.is_zero() for p in phi.block_numerators(j))
                assert (j in mat.zero_columns) == zero, trial
            lam1, lam2 = _two_lambdas(h)
            assert homogenize(h, lam1)[0] == homogenize(h, lam2)[0] == h, trial


def test_criterion_11_central_transfer_round_trip():
    pairs = [("C4", 2), ("Q8xC2", 2), ("D4xC2", 2),
             ("Q8xC4", 4), ("Heis3xC3", 3)]
    f = cyclotomic_field(12)
    with budget("criterion 11: central transfer round trip", 60):
        for name, h_order in pairs:
            g = named_group(name)
            comm = g.commutator_subgroup().elements
            zg, back = g.center().as_group()
            h = next(
                Subgroup(g, frozenset(back[x] for x in s), normal=True)
                for s in all_subgroups(zg)
                if len(s) == h_order
                and (frozenset(back[x] for x in s) & comm) == frozenset([0]))
            q = g.quotient(h).target
            rg = edim(g, f)
            rq = edim(q, f)
            assert rg.exact and rq.exact, name
            rkg = structure(k_center(g, f)).rank()
            rkq = structure(k_center(q, f)).rank()
            # descending then lifting (and vice versa) restores the value
            assert rg.lower == rq.lower + (rkg - rkq), name
            assert rq.lower == rg.lower - (rkg - rkq), name
            rep = central_ext_rdim(g, h, f, "quotient", rdim(q, f).value)
            assert rep.quotient_rank_identity, name
