"""R8 up to isomorphism: the engine, which evaluates one cyclic subgroup per
element order, gives the same edim/covdim results, traces included, as the
reference below, which recurses into every distinct cyclic subgroup."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edimkit import engine
from edimkit.errors import EdimkitError
from edimkit.fields import k_center_rank, parse_field
from edimkit.groups import Subgroup, all_subgroups, from_generators
from edimkit.named import named_group

FIELDS = ["Q", "algclosed:0", "char=2;zeta=1"]


def every_cyclic_subgroup(g, f, b, rk_z, facts, subgroups, depth):
    """R8 over every distinct proper cyclic subgroup (or, in "all" mode, every
    proper subgroup), in order of its first generator."""
    candidates = []
    if subgroups == "all" and g.order <= engine.SUBGROUP_LATTICE_LIMIT:
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
        hg, _ = Subgroup(g, elems).as_group()
        eh = engine.edim(hg, f, facts, subgroups="cyclic", _depth=depth + 1)
        rk_h = k_center_rank(hg, f)
        bound = eh.lower - rk_h + rk_z
        if bound > b.lower:
            b.tighten_lower(bound, "R8", engine.CITE["R8"],
                            f"subgroup of order {hg.order}: lower {eh.lower}, "
                            f"rk Z(H,k) {rk_h}, rk Z(G,k) {rk_z}")


def answers(g, field):
    """edim and covdim of g over the field, as dicts or error names."""
    f = parse_field(field)
    out = []
    for fn in (engine.edim, engine.covdim):
        try:
            out.append(fn(g, f).as_dict())
        except EdimkitError as e:
            out.append(type(e).__name__)
    return out


def reference_answers(g, field):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_apply_subgroup_bounds", every_cyclic_subgroup)
        return answers(g, field)


GENERATORS = st.integers(2, 6).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3))


@settings(max_examples=25, deadline=None)
@given(gens=GENERATORS, field=st.sampled_from(FIELDS))
def test_small_permutation_groups_match_the_reference(gens, field):
    gens = [list(p) for p in gens]
    g = from_generators(gens, degree=len(gens[0]))
    assert answers(g, field) == reference_answers(g, field)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["S3xS3", "Q8xS3", "S4xS4", "A5xS3", "S3xS3xS3"])
def test_products_match_the_reference(name, field):
    g = named_group(name)
    assert answers(g, field) == reference_answers(g, field)


def test_one_candidate_per_element_order():
    # S4xS4 has elements of orders 2, 3, 4, 6 and 12 (a proper order each),
    # so the top level recurses into at most five cyclic subgroups.  Every
    # nested call is counted at its depth, however the depth is passed.
    g = named_group("S4xS4")
    depths = []
    real_edim = engine.edim
    signature = inspect.signature(real_edim)

    def counted(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        depths.append(call.arguments["_depth"])
        return real_edim(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "edim", counted)
        engine.edim(g, parse_field("Q"))
    assert depths.count(0) == 1  # only the top-level call
    assert depths.count(1) <= 5 + 2  # plus the two factors of R9
