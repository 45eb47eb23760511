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
    PermBackend,
    TableBackend,
    compose,
    from_generators,
    normal_subgroups_bruteforce,
)
from edimkit.named import corpus, cyclic, dihedral, load_group, named_group

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "edimkit" / "fixtures"
# fixtures built from permutations with a table (2A8 is above TABLE_LIMIT)
PERM_FIXTURES = [p for p in sorted(FIXTURE_DIR.glob("*.json"))
                 if p.name != "2a8.json" and load_group(str(p)).perms is not None]


def compose_lookup_table(g):
    """The table as composing every pair of permutations and looking it up."""
    index = {p: i for i, p in enumerate(g.perms)}
    return np.array([[index[compose(pa, pb)] for pb in g.perms] for pa in g.perms])


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

