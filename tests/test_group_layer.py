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
from oracles import primitive_root
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


@pytest.fixture(scope="module")
def c2_14():
    """C2^14 on 28 points, each generator swapping one pair 2i, 2i + 1."""
    return from_generators([[2 * i + 1 - (x - 2 * i) if x // 2 == i else x
                             for x in range(28)] for i in range(14)])


def test_base_keys_compared_as_bytes_beyond_int64(c2_14):
    # the base is one point of each pair, and 28^14 >= 2^63, so base images
    # are compared as bytes
    g = c2_14
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


def test_base_images_of_no_element_raise_on_the_searchsorted_path(c2_14):
    # base point 2 is only ever sent to 2 or 3
    assert c2_14.backend.lookup is None
    with pytest.raises(InternalInconsistency, match="no element"):
        c2_14.backend.index(np.zeros(14, dtype=np.int16))


def test_index_path_follows_the_size_rule(agl_1_67, c2_14):
    # a lookup array while degree**len(base) <= 64 * order, else binary search
    agl = agl_1_67.backend
    assert agl.lookup is not None and len(agl.lookup) == 67 ** 2 <= 64 * 4422
    assert sorted(agl.lookup[agl.lookup >= 0].tolist()) == list(range(agl.order))
    assert c2_14.backend.lookup is None and 28 ** 14 > 64 * 2 ** 14


@pytest.mark.parametrize("degree, direct", [(560, True), (561, False)])
def test_index_path_at_the_size_bound(degree, direct):
    # C70 x C70 on two 70-cycles plus fixed points: base [0, 70], so
    # degree**2 against 64 * 4900 = 560**2 picks the path
    a, b = list(range(degree)), list(range(degree))
    a[:70] = [(i + 1) % 70 for i in range(70)]
    b[70:140] = [70 + (i + 1) % 70 for i in range(70)]
    g = from_generators([a, b])
    assert g.order == 4900 and g.backend.base == [0, 70]
    assert (g.backend.lookup is not None) == direct
    x = np.arange(g.order)
    y = np.roll(x, 1234)
    assert np.array_equal(g.perms[g.backend.mul(x, y)],
                          np.take_along_axis(g.perms[x], g.perms[y], axis=1))


def bfs_elements(gens):
    """The permutations of the generated group in element-by-element
    breadth-first order, each element times each generator in turn."""
    identity = tuple(range(len(gens[0])))
    seen, queue = {identity}, [identity]
    for x in queue:
        for s in gens:
            y = compose(x, s)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return queue


def affine_line(p):
    r = primitive_root(p)
    return [[r * x % p for x in range(p)], [(x + 1) % p for x in range(p)]]


# the closure keys whole rows: packed ints on the smoke groups' few points,
# bytes (merged layer by layer) on the 17 and 67 points of the affine lines
CLOSURES = {**SMOKE, "AGL1_17": affine_line(17), "AGL1_67": affine_line(67)}


@pytest.mark.parametrize("name", sorted(CLOSURES))
def test_closure_order_is_breadth_first(name):
    g = from_generators(CLOSURES[name])
    gens = [tuple(p) for p in CLOSURES[name]]
    assert [tuple(p) for p in g.perms.tolist()] == bfs_elements(gens)


# the per-element algorithms that orbit labels and shrinking power lists
# replaced above the table limit


def class_of(g, x):
    """The conjugates g^-1 x g of x, for every g, in one column."""
    every = np.arange(g.order)
    return np.unique(g.backend.mul(g.backend.mul(g.backend.inverse, x), every))


def classes_oracle(g):
    """The least unplaced element and all of its conjugates, until every
    element is placed."""
    unplaced = np.ones(g.order, dtype=bool)
    classes = []
    while unplaced.any():
        members = class_of(g, int(np.argmax(unplaced)))
        unplaced[members] = False
        classes.append(frozenset(members.tolist()))
    return classes


def element_orders_oracle(g):
    """Every power list multiplied by every element until all are 1."""
    every = np.arange(g.order)
    orders = np.ones(g.order, dtype=np.int64)
    power, alive = every, every != 0
    while alive.any():
        orders += alive
        power = g.backend.mul(power, every)
        alive &= power != 0
    return orders.tolist()


@pytest.fixture(scope="module")
def large_groups(agl_1_67, c2_14, s5xa5, agl_mod_c2):
    return {"AGL(1,67)": agl_1_67, "C2^14": c2_14, "S5xA5": s5xa5,
            "AGL(1,67)xC2/C2": agl_mod_c2.target}


@pytest.mark.parametrize("name", ["AGL(1,67)", "S5xA5", "AGL(1,67)xC2/C2"])
def test_classes_above_the_table_limit_match_the_per_element_oracle(large_groups, name):
    g = large_groups[name]
    assert g.backend.table is None
    assert g.conjugacy_classes() == classes_oracle(g)


def test_classes_of_a_byte_key_group_match_the_oracle_on_a_sample(c2_14):
    # 2^14 singleton classes: the whole oracle would form 2^14 columns
    g = c2_14
    classes = g.conjugacy_classes()
    assert [min(c) for c in classes] == list(range(g.order))
    rng = np.random.default_rng(20261020)
    for x in [0, g.order - 1] + rng.integers(0, g.order, 30).tolist():
        assert classes[g.class_map()[x]] == frozenset(class_of(g, x).tolist())


@pytest.mark.parametrize("name", ["AGL(1,67)", "C2^14", "S5xA5", "AGL(1,67)xC2/C2"])
def test_element_orders_above_the_table_limit_match_the_oracle(large_groups, name):
    g = large_groups[name]
    assert g.element_orders() == element_orders_oracle(g)


@pytest.mark.slow
def test_2a8_classes_and_orders_match_the_oracles():
    g = load_group(str(FIXTURE_DIR / "2a8.json"))
    assert g.backend.lookup is None and 240 ** 4 > 64 * g.order
    assert g.conjugacy_classes() == classes_oracle(g)
    assert g.element_orders() == element_orders_oracle(g)
