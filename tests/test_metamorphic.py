"""Presentation independence: relabelling the points, shuffling the
generators and adding a redundant generator change neither the `invariants`
JSON nor the edim/covdim interval over Q, nor the character degrees and class
sizes, rdim and the component count over an algebraically closed field."""

import contextlib
import io
import json
import os
import random
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edimkit.chartab import character_table
from edimkit.cli import main
from edimkit.engine import covdim, edim
from edimkit.errors import EdimkitError
from edimkit.fields import algebraically_closed, rationals
from edimkit.groups import from_generators
from edimkit.repdim import min_components, rdim
from oracles import min_components_oracle

KBAR = algebraically_closed(0)


def compose(p, q):
    """p after q: (p*q)(x) = p[q[x]]."""
    return [p[i] for i in q]


def relabel(gens, sigma):
    """The generators with point x renamed sigma[x]."""
    out = []
    for g in gens:
        h = [0] * len(g)
        for x, y in enumerate(g):
            h[sigma[x]] = sigma[y]
        out.append(h)
    return out


def presentations(gens, sigma, order):
    """The three transformations of one presentation."""
    return {"relabel": relabel(gens, sigma),
            "shuffle": [gens[i] for i in order],
            "redundant": gens + [compose(gens[0], gens[-1])]}


def invariants(gens):
    """Exit code and stdout of `edimkit invariants` on the generators."""
    spec = {"kind": "permutation", "degree": len(gens[0]), "generators": gens}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "group.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["invariants", path])
    return code, out.getvalue()


def intervals(gens):
    """(lower, upper) of edim and covdim over Q, or the error raised."""
    g = from_generators(gens, degree=len(gens[0]))
    out = []
    for fn in (edim, covdim):
        try:
            r = fn(g, rationals())
            out.append((r.lower, r.upper))
        except EdimkitError as e:
            out.append(type(e).__name__)
    return out


def representations(gens):
    """Character degrees and sorted class sizes, then rdim over algclosed:0
    (value and sorted dimension vector) and the least number of components,
    which must equal the brute-force count."""
    g = from_generators(gens, degree=len(gens[0]))
    t = character_table(g)
    w = rdim(g, KBAR)
    m = min_components(g, KBAR)
    assert m == min_components_oracle(g, KBAR)
    return (t.degrees, sorted(t.class_sizes), w.value,
            sorted(w.dimension_vector), m)


def _generators(degrees, sizes):
    return degrees.flatmap(lambda d: st.lists(
        st.permutations(range(d)), min_size=sizes[0], max_size=sizes[1]))


# mostly 2-3 generators on 4-6 points, whose groups are rarely tiny; one
# draw in four keeps the small degrees and single generators
GENERATORS = st.one_of(*[_generators(st.integers(4, 6), (2, 3))] * 3,
                       _generators(st.integers(2, 6), (1, 3)))
# a presentation with a relabelling of its points and an order of its
# generators
CASES = GENERATORS.flatmap(lambda gens: st.tuples(
    st.just([list(g) for g in gens]), st.permutations(range(len(gens[0]))),
    st.permutations(range(len(gens)))))


# groups of order divisible by 4, where the component count can exceed 1
@example(case=([[1, 0, 2, 3], [1, 2, 3, 0]], [3, 1, 0, 2], [1, 0]))     # S4
@example(case=([[1, 2, 3, 0], [0, 3, 2, 1]], [2, 0, 3, 1], [1, 0]))     # D4
@example(case=([[1, 2, 3, 0]], [1, 3, 0, 2], [0]))                      # C4
@example(case=([[1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4]],
               [5, 2, 4, 0, 1, 3], [1, 0]))                             # C2 x C2
@settings(max_examples=15, deadline=None)
@given(case=CASES)
def test_small_permutation_groups_are_presentation_independent(case):
    gens, sigma, order = case
    expect = invariants(gens), intervals(gens), representations(gens)
    for name, other in presentations(gens, sigma, order).items():
        assert (invariants(other), intervals(other),
                representations(other)) == expect, name


AGL_1_67 = [[2 * x % 67 for x in range(67)], [(x + 1) % 67 for x in range(67)]]
SIGMA_67 = random.Random(67).sample(range(67), 67)


def test_agl_1_67_invariants_are_presentation_independent():
    expect = invariants(AGL_1_67)
    assert expect[0] == 0 and json.loads(expect[1])["order"] == 4422
    for name, other in presentations(AGL_1_67, SIGMA_67, [1, 0]).items():
        assert invariants(other) == expect, name


def test_agl_1_67_intervals_are_presentation_independent():
    # the three transformations at once: edim and covdim over Q take about
    # a second per presentation of AGL(1, 67)
    other = relabel(AGL_1_67, SIGMA_67)[::-1]
    other.append(compose(other[0], other[1]))
    assert intervals(other) == intervals(AGL_1_67) == [(1, 65), (2, 66)]
