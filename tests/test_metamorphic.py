"""Presentation independence: relabelling the points, shuffling the
generators and adding a redundant generator change neither the `invariants`
JSON nor the edim/covdim interval over Q."""

import contextlib
import io
import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from edimkit.cli import main
from edimkit.engine import covdim, edim
from edimkit.errors import EdimkitError
from edimkit.fields import rationals
from edimkit.groups import from_generators


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


GENERATORS = st.integers(2, 6).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3))


@settings(max_examples=15, deadline=None)
@given(gens=GENERATORS, data=st.data())
def test_small_permutation_groups_are_presentation_independent(gens, data):
    gens = [list(g) for g in gens]
    sigma = data.draw(st.permutations(range(len(gens[0]))))
    order = data.draw(st.permutations(range(len(gens))))
    expect = invariants(gens), intervals(gens)
    for name, other in presentations(gens, sigma, order).items():
        assert (invariants(other), intervals(other)) == expect, name


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
