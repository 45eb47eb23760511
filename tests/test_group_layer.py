"""Group-layer construction against element-by-element oracles: tables from
Cayley columns, Light's associativity test, prime-order feet and memoized
structure."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edimkit.errors import InternalInconsistency
from edimkit.groups import (
    TABLE_LIMIT,
    FiniteGroup,
    PairBackend,
    PermBackend,
    QuotientBackend,
    Subgroup,
    TableBackend,
    direct_product,
    from_generators,
)
from edimkit.named import corpus, cyclic, dihedral, load_group, named_group
from test_groups import normal_subgroups_bruteforce

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "edimkit" / "fixtures"
# fixtures built from permutations with a table (2A8 is above TABLE_LIMIT)
PERM_FIXTURES = [p for p in sorted(FIXTURE_DIR.glob("*.json"))
                 if p.name != "2a8.json" and load_group(str(p)).perms is not None]


def compose(p, q):
    """Composition p after q of permutation tuples: (p*q)(x) = p[q[x]]."""
    return tuple(p[i] for i in q)


def compose_lookup_table(g):
    """The table as composing every pair of permutations and looking it up."""
    perms = [tuple(p) for p in g.perms.tolist()]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[compose(pa, pb)] for pb in perms] for pa in perms])


def compose_lookup_table_np(g):
    """compose_lookup_table with whole rows composed by numpy (larger groups)."""
    perms = np.array(g.perms, dtype=np.int64)
    n, d = perms.shape
    keys = perms @ (d ** np.arange(d))
    order = np.argsort(keys)
    out = np.empty((n, n), dtype=np.int64)
    step = max(1, (1 << 21) // (n * d))
    for lo in range(0, n, step):
        # comp[i, b, x] = perms[lo + i][perms[b][x]]
        comp = perms[lo:lo + step][:, perms]
        k = comp @ (d ** np.arange(d))
        out[lo:lo + step] = order[np.searchsorted(keys, k, sorter=order)]
    return out


# the smoke groups of the benchmark's perm-structure workload
SMOKE = {
    "S4": [[1, 2, 3, 0], [1, 0, 2, 3]],
    "AGL1_7": [[(3 * x) % 7 for x in range(7)], [(x + 1) % 7 for x in range(7)]],
    # Q8 acting on its units 1, i, j, k, -1, -i, -j, -k by right multiplication
    "reg_Q8": [[1, 4, 7, 2, 5, 0, 3, 6], [2, 3, 4, 5, 6, 7, 0, 1]],
}


def test_right_column_is_right_multiplication(agl_1_67):
    agl = agl_1_67
    assert agl.order > TABLE_LIMIT and isinstance(agl.backend, PermBackend)
    s4 = named_group("S4")
    assert isinstance(s4.backend, TableBackend)
    for g, hs in ((s4, s4.elements()), (agl, [0, 1, 2, 100, agl.order - 1])):
        for h in hs:
            assert g.right_column(h).tolist() == [g.mult(x, h) for x in g.elements()]


@pytest.mark.parametrize("path", PERM_FIXTURES, ids=lambda p: p.stem)
def test_fixture_tables_match_compose_lookup(path):
    g = load_group(str(path))
    assert np.array_equal(g.backend.table, compose_lookup_table(g))


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_group_tables_match_compose_lookup(name):
    g = from_generators(SMOKE[name])
    assert np.array_equal(g.backend.table, compose_lookup_table(g))
    assert np.array_equal(compose_lookup_table_np(g), compose_lookup_table(g))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)))
def test_random_permutation_group_tables(gens):
    g = from_generators(gens)
    if g.order > TABLE_LIMIT:
        assert isinstance(g.backend, PermBackend)
        return
    assert np.array_equal(g.backend.table, compose_lookup_table_np(g))


def minimal_normal_oracle(g):
    normal = [s for s in normal_subgroups_bruteforce(g) if len(s) > 1]
    return [s for s in normal if not any(m < s for m in normal)]


@pytest.mark.parametrize("name", sorted(corpus()))
def test_feet_match_minimal_normal_subgroups(name):
    g = corpus()[name]
    assert g.order <= 200
    assert [f.elements for f in g.feet()] == minimal_normal_oracle(g)


@pytest.mark.parametrize("name", ["S4", "D6", "C12", "Q8xC3", "A5"])
def test_structure_is_computed_once(monkeypatch, name):
    calls = []
    closure = FiniteGroup.normal_closure

    def counted(self, seed):
        calls.append(1)
        return closure(self, seed)

    monkeypatch.setattr(FiniteGroup, "normal_closure", counted)
    g = named_group(name)
    feet = g.feet()
    soc, soc_ab = g.socle(), g.socle_abelian()
    first = len(calls)
    assert first > 0
    feet.clear()    # the caller's list is its own
    assert [f.elements for f in g.feet()] == [f.elements for f in g.feet()] != []
    assert g.socle() is soc and g.socle_abelian() is soc_ab
    assert len(calls) == first


# a loop of order 5: a Latin square with identity 0 and x*x = 0, not associative
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_light_rejects_nonassociative_loop():
    t = np.array(LOOP5)
    n = len(t)
    assert all(sorted(r) == list(range(n)) for r in t.tolist() + t.T.tolist())
    assert any(t[t[a, b], c] != t[a, t[b, c]]
               for a, b, c in itertools.product(range(n), repeat=3))
    with pytest.raises(InternalInconsistency, match="associativity"):
        FiniteGroup(TableBackend(t), [1, 2])


def test_light_rejects_generators_that_do_not_generate():
    t = cyclic(4).backend.table
    with pytest.raises(InternalInconsistency, match="generate"):
        FiniteGroup(TableBackend(t), [2])
    FiniteGroup(TableBackend(t), [1])


def test_light_accepts_every_generating_set_of_a_group():
    t = dihedral(4).backend.table
    for gens in ([1, 2], [2, 1], [1, 2, 3], list(range(1, 8))):
        FiniteGroup(TableBackend(t), gens)



# ---------------------------------------------------------------------------
# the backends above TABLE_LIMIT against elementwise oracles


@pytest.fixture(scope="module")
def s5xa5():
    return named_group("S5xA5")


@pytest.fixture(scope="module")
def agl_mod_c2(agl_1_67):
    """C2 x AGL(1, 67) modulo its C2 factor {0, |AGL|}."""
    g = direct_product(cyclic(2), agl_1_67)
    return g.quotient(Subgroup(g, frozenset([0, agl_1_67.order]), normal=True))


def check_against_oracle(g, mult, inv):
    """g's mul on scalars and on broadcast index arrays, its inverses and
    right columns, against the elementwise oracles mult and inv."""
    rng = np.random.default_rng(20261018)
    xs, ys = rng.integers(0, g.order, (2, 40))
    for a, b in zip(xs.tolist(), ys.tolist()):
        assert g.mult(a, b) == int(g.backend.mul(a, b)) == mult(a, b)
    grid = g.backend.mul(xs[:15, None], ys[None, :15])
    assert grid.tolist() == [[mult(a, b) for b in ys[:15].tolist()] for a in xs[:15].tolist()]
    assert g.backend.mul(xs, ys).tolist() == [mult(a, b) for a, b in zip(xs.tolist(), ys.tolist())]
    assert [g.inv(a) for a in xs.tolist()] == g.backend.inverse[xs].tolist() \
        == [inv(a) for a in xs.tolist()]
    for h in (0, int(xs[0]), g.order - 1):
        assert g.right_column(h).tolist() == [mult(x, h) for x in range(g.order)]


def test_permutation_backend_matches_compose_and_lookup(agl_1_67):
    g = agl_1_67
    assert g.order > TABLE_LIMIT and isinstance(g.backend, PermBackend)
    perms = [tuple(p) for p in g.perms.tolist()]
    index = {p: i for i, p in enumerate(perms)}
    assert len(index) == g.order

    def inverse(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    check_against_oracle(g, lambda a, b: index[compose(perms[a], perms[b])],
                         lambda a: index[inverse(perms[a])])


def test_product_backend_matches_componentwise_product(s5xa5):
    g = s5xa5
    g1, g2 = g.factors
    n2 = g2.order
    assert g.order == 7200 and isinstance(g.backend, PairBackend)
    check_against_oracle(
        g, lambda a, b: g1.mult(a // n2, b // n2) * n2 + g2.mult(a % n2, b % n2),
        lambda a: g1.inv(a // n2) * n2 + g2.inv(a % n2))


def test_quotient_backend_matches_coset_arithmetic(agl_mod_c2):
    qm = agl_mod_c2
    g, proj = qm.source, qm.projection
    assert qm.target.order == 4422 and isinstance(qm.target.backend, QuotientBackend)
    reps = {}
    for x in g.elements():
        reps.setdefault(proj[x], x)
    assert len(reps) == qm.target.order
    check_against_oracle(qm.target, lambda a, b: proj[g.mult(reps[a], reps[b])],
                         lambda a: proj[g.inv(reps[a])])


def test_base_keys_compared_as_bytes_beyond_int64():
    # C2^14 on 28 points: the base is one point of each pair, and
    # 28^14 >= 2^63, so base images are compared as bytes
    gens = [[2 * i + 1 - (x - 2 * i) if x // 2 == i else x for x in range(28)]
            for i in range(14)]
    g = from_generators(gens)
    assert g.order == 2 ** 14 and isinstance(g.backend, PermBackend)
    assert len(g.backend.base) == 14 and g.backend.keys.dtype.kind == "V"
    perms = [tuple(p) for p in g.perms.tolist()]
    index = {p: i for i, p in enumerate(perms)}
    check_against_oracle(g, lambda a, b: index[compose(perms[a], perms[b])],
                         lambda a: a)


def test_base_images_of_no_element_raise(agl_1_67):
    g = agl_1_67
    assert g.backend.base == [0, 1]
    # x -> a x + b sends 0 and 1 to distinct points
    with pytest.raises(InternalInconsistency, match="no element"):
        g.backend.index(np.array([5, 5]))
