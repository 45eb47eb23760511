"""Multihomogenization: worked examples and randomized property checks."""

import random
from fractions import Fraction

import pytest

from edimkit.errors import (
    InvalidRefinement,
    LambdaNotInjective,
    NotEquivariant,
    NotMultihomogeneous,
    ParseError,
    ShapeMismatch,
)
from edimkit.mhom import (
    DegreeMatrix,
    GradedPolyMap,
    Grading,
    OneParamSubgroup,
    choose_lambda,
    degree_matrix,
    homogenize,
    jacobian_rank,
    map_from_json,
    matrix_rank,
    occurring_weights,
    rank_bound_check,
    refine,
    verify_equivariance,
    weight_decompose,
)
from edimkit.poly import Polynomial, parse_polynomial
from test_ntheory import rational_rref

# ---------------------------------------------------------------------------
# helpers


def _extend(p: Polynomial, n: int) -> Polynomial:
    """View a polynomial inside a ring with extra trailing variables."""
    pad = n - p.nvars
    return Polynomial(n, {m + (0,) * pad: c for m, c in p.terms.items()})


def _scaling_images(grading: Grading) -> list:
    """Variable v in block b maps to s_b * v in the extended ring."""
    nv = grading.total_dim
    m = grading.n_blocks
    n = nv + m
    block_of = grading.block_of()
    images = []
    for v in range(nv):
        mono = [0] * n
        mono[v] = 1
        mono[nv + block_of[v]] = 1
        images.append(Polynomial(n, {tuple(mono): Fraction(1)}))
    return images


def _scalar_monomial(grading: Grading, chi) -> Polynomial:
    nv = grading.total_dim
    m = grading.n_blocks
    mono = [0] * (nv + m)
    for b in range(m):
        mono[nv + b] = chi[b]
    return Polynomial(nv + m, {tuple(mono): Fraction(1)})


def assert_scaling_identity(h: GradedPolyMap, mat: DegreeMatrix):
    """Every component of the output scales by a single monomial character."""
    grading = h.source
    nv, m = grading.total_dim, grading.n_blocks
    images = _scaling_images(grading)
    den_w = list(weight_decompose(h.denominator, grading))
    assert len(den_w) == 1
    chi0 = den_w[0]
    assert h.denominator.substitute(images) == \
        _extend(h.denominator, nv + m) * _scalar_monomial(grading, chi0)
    for j, sl in enumerate(h.target.coordinate_slices()):
        col = [mat.entries[i][j] for i in range(m)]
        chi = tuple(c + z for c, z in zip(col, chi0))
        for t in sl:
            p = h.numerators[t]
            assert p.substitute(images) == \
                _extend(p, nv + m) * _scalar_monomial(grading, chi)


def _two_lambdas(phi: GradedPolyMap):
    ws = sorted(occurring_weights(phi))
    m = phi.source.n_blocks
    found = []
    for b in range(1, 200):
        lam = OneParamSubgroup(tuple(b ** i for i in range(m)))
        if len({lam.pairing(w) for w in ws}) == len(ws):
            found.append(lam)
        if len(found) == 2:
            return found
    raise AssertionError("could not separate weights")


# ---------------------------------------------------------------------------
# worked example


def test_worked_example():
    names = ["x", "y"]
    src = Grading((1, 1))
    tgt = Grading((1, 1))
    phi = GradedPolyMap(
        src, tgt,
        [parse_polynomial("x + x*y", names), parse_polynomial("y + x^2", names)],
        parse_polynomial("1", names))
    h, mat = homogenize(phi, OneParamSubgroup((1, 3)))
    assert h.numerators[0] == parse_polynomial("x", names)
    assert h.numerators[1] == parse_polynomial("x^2", names)
    assert mat.as_lists() == [[1, 2], [0, 0]]
    assert mat.rank() == 1
    assert mat.zero_columns == frozenset()


def test_worked_example_auto_lambda_picks_some_homogeneous_part():
    names = ["x", "y"]
    phi = GradedPolyMap(
        Grading((1, 1)), Grading((1, 1)),
        [parse_polynomial("x + x*y", names), parse_polynomial("y + x^2", names)],
        parse_polynomial("1", names))
    h, mat = homogenize(phi)
    # whatever subgroup is chosen, the output is multihomogeneous
    assert degree_matrix(h).as_lists() == mat.as_lists()


def test_homogenize_splits_each_polynomial_once(monkeypatch):
    import edimkit.mhom as mhom

    names = ["x", "y", "z"]
    phi = GradedPolyMap(
        Grading((1, 2)), Grading((2, 1)),
        [parse_polynomial(s, names) for s in ["x*y + x^2*z", "x*z + y^3", "0"]],
        parse_polynomial("x + y*z", names))
    split = mhom.weight_decompose
    calls = []
    monkeypatch.setattr(mhom, "weight_decompose",
                        lambda p, g: calls.append(p) or split(p, g))
    h, mat = homogenize(phi)
    # one split per polynomial, then one per output in the closing check
    assert len(calls) == 2 * (len(phi.numerators) + 1)
    assert calls[:4] == [phi.denominator, *phi.numerators]
    assert calls[4:] == [h.denominator, *h.numerators]


def test_lambda_not_injective():
    names = ["x", "y"]
    phi = GradedPolyMap(
        Grading((1, 1)), Grading((1, 1)),
        [parse_polynomial("x + y", names), parse_polynomial("y", names)],
        parse_polynomial("1", names))
    with pytest.raises(LambdaNotInjective):
        homogenize(phi, OneParamSubgroup((1, 1)))


def test_degree_matrix_rejects_mixed_block():
    names = ["x", "y"]
    phi = GradedPolyMap(
        Grading((1, 1)), Grading((1, 1)),
        [parse_polynomial("x + y", names), parse_polynomial("y", names)],
        parse_polynomial("1", names))
    with pytest.raises(NotMultihomogeneous):
        degree_matrix(phi)


def test_degree_matrix_rejects_mixed_denominator():
    names = ["x", "y"]
    phi = GradedPolyMap(
        Grading((1, 1)), Grading((1, 1)),
        [parse_polynomial("x", names), parse_polynomial("y", names)],
        parse_polynomial("1 + x", names))
    with pytest.raises(NotMultihomogeneous):
        degree_matrix(phi)


def test_choose_lambda_separates():
    lam = choose_lambda({(0, 1), (1, 0)})
    assert lam.pairing((0, 1)) != lam.pairing((1, 0))
    assert choose_lambda(set()).weights == (1,)


def test_matrix_rank_examples():
    assert matrix_rank([[1, 2], [0, 0]]) == 1
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([]) == 0


def _low_rank(rng, m, n, k, entry):
    """An m x n product of an m x k and a k x n matrix of entry() values."""
    a = [[entry() for _ in range(k)] for _ in range(m)]
    b = [[entry() for _ in range(n)] for _ in range(k)]
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)]


@pytest.mark.parametrize("kind", ["int", "Fraction"])
def test_matrix_rank_matches_the_rational_rref(kind):
    rng = random.Random(f"rank:{kind}")
    if kind == "int":
        def entry():
            return rng.choice([0, 0, 1, -1, rng.randint(-9, 9),
                               rng.randint(-2 ** 70, 2 ** 70)])
    else:
        def entry():
            return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 2 ** 40 + 1]))
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = _low_rank(rng, m, n, rng.randint(0, min(m, n)), entry)
        if rng.random() < 0.3:
            col = rng.randrange(n)  # a zero column ahead of the pivots
            for row in rows:
                row[col] = 0 * row[col]
        assert matrix_rank(rows) == len(rational_rref(rows)[1]), rows


def test_parser():
    names = ["x", "y"]
    p = parse_polynomial("(x + y)^2 - x^2 - y^2", names)
    assert p == parse_polynomial("2*x*y", names)
    assert parse_polynomial("x/2", names) == \
        Polynomial.variable(2, 0).scale(Fraction(1, 2))
    for bad in ["x**-1", "x + z", "sin(x)", "x/y", "1.5*x"]:
        with pytest.raises(ParseError):
            parse_polynomial(bad, names)


def test_shape_validation():
    names = ["x", "y"]
    with pytest.raises(ShapeMismatch):
        GradedPolyMap(Grading((1, 1)), Grading((1, 1)),
                      [parse_polynomial("x", names)],
                      parse_polynomial("1", names))
    with pytest.raises(ShapeMismatch):
        GradedPolyMap(Grading((1, 1)), Grading((1,)),
                      [parse_polynomial("x", names)],
                      parse_polynomial("0", names))
    with pytest.raises(ShapeMismatch):
        Grading((1, 0))


def test_refinement_validation():
    names = ["x", "y", "z"]
    phi = GradedPolyMap(
        Grading((3,)), Grading((1,)),
        [parse_polynomial("x*y*z", names)],
        parse_polynomial("1", names))
    with pytest.raises(InvalidRefinement):
        refine(phi, source=Grading((2, 2)))
    with pytest.raises(InvalidRefinement):
        refine(phi, source=Grading((2,)))


def test_refinement_example():
    names = ["x", "y"]
    phi = GradedPolyMap(
        Grading((2,)), Grading((1,)),
        [parse_polynomial("x*y", names)],
        parse_polynomial("1", names))
    assert degree_matrix(phi).as_lists() == [[2]]
    out, mat = refine(phi, source=Grading((1, 1)))
    assert mat.as_lists() == [[1], [1]]
    assert mat.rank() == 1


def test_equivariance_true_and_false():
    names = ["x", "y"]
    g = Grading((2,))
    phi = GradedPolyMap(g, g,
                        [parse_polynomial("x", names),
                         parse_polynomial("y", names)],
                        parse_polynomial("1", names))
    swap = [[0, 1], [1, 0]]
    ident = [[1, 0], [0, 1]]
    assert verify_equivariance(phi, [swap], [swap])
    assert not verify_equivariance(phi, [swap], [ident])
    with pytest.raises(ShapeMismatch):
        verify_equivariance(phi, [swap], [])


def test_jacobian_and_rank_bound_report():
    names = ["x", "y"]
    g = Grading((1, 1))
    phi = GradedPolyMap(g, g,
                        [parse_polynomial("x", names),
                         parse_polynomial("x", names)],
                        parse_polynomial("1", names))
    assert jacobian_rank(phi) == 1
    ident = [[1, 0], [0, 1]]
    rep = rank_bound_check(phi, [ident], [ident], scalar_center_rank=1)
    assert rep.probabilistic
    assert "probabilistic" in rep.note
    assert rep.degree_matrix_rank == 1  # both components share weight (1, 0)
    assert rep.satisfies_lower_bound
    swap = [[0, 1], [1, 0]]
    with pytest.raises(NotEquivariant):
        rank_bound_check(phi, [swap], [swap], scalar_center_rank=1)


def test_map_from_json():
    data = {
        "source_blocks": [1, 1],
        "target_blocks": [1, 1],
        "source_variables": ["x", "y"],
        "numerators": ["x + x*y", "y + x^2"],
        "generators_source": [[[1, 0], [0, 1]]],
        "generators_target": [[[1, 0], [0, 1]]],
    }
    phi, gv, gw = map_from_json(data)
    assert verify_equivariance(phi, gv, gw)
    h, mat = homogenize(phi, OneParamSubgroup((1, 3)))
    assert mat.as_lists() == [[1, 2], [0, 0]]


# ---------------------------------------------------------------------------
# randomized properties


def _random_poly(rng, nv, allow_zero=True):
    if allow_zero and rng.random() < 0.15:
        return Polynomial.zero(nv)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * nv
        budget = rng.randint(0, 5)
        for _ in range(budget):
            mono[rng.randrange(nv)] += 1
        terms[tuple(mono)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    p = Polynomial(nv, terms)
    if p.is_zero() and not allow_zero:
        return Polynomial.constant(nv, 1)
    return p


def _random_map(rng):
    src = Grading(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
    tgt = Grading(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
    nv = src.total_dim
    nums = [_random_poly(rng, nv) for _ in range(tgt.total_dim)]
    den = _random_poly(rng, nv, allow_zero=False)
    return GradedPolyMap(src, tgt, nums, den)


def test_randomized_properties():
    rng = random.Random(20260823)
    for trial in range(200):
        phi = _random_map(rng)
        h, mat = homogenize(phi)

        # each output component scales by one monomial character
        assert_scaling_identity(h, mat)

        # idempotence: a multihomogeneous map is its own homogenization
        h2, mat2 = homogenize(h)
        assert h2 == h, trial
        assert mat2.as_lists() == mat.as_lists()
        assert mat2.zero_columns == mat.zero_columns

        # zero target blocks and only those give zero matrix columns
        for j in range(phi.target.n_blocks):
            block_zero = all(p.is_zero() for p in phi.block_numerators(j))
            assert (j in mat.zero_columns) == block_zero, trial
            assert all(p.is_zero() for p in h.block_numerators(j)) == block_zero

        # the result does not depend on the separating subgroup
        lam1, lam2 = _two_lambdas(h)
        ha, ma = homogenize(h, lam1)
        hb, mb = homogenize(h, lam2)
        assert ha == hb == h, trial
        assert ma.as_lists() == mb.as_lists() == mat.as_lists()

        # target refinement preserves the rank exactly
        tgt = h.target
        if any(d > 1 for d in tgt.block_dims):
            finer = []
            for d in tgt.block_dims:
                finer.extend([1] * d)
            _, mt = refine(h, target=Grading(tuple(finer)))
            assert mt.rank() == mat.rank(), trial

        # source refinement can only increase the rank
        srcg = h.source
        if any(d > 1 for d in srcg.block_dims):
            finer = []
            for d in srcg.block_dims:
                finer.extend([1] * d)
            _, ms = refine(h, source=Grading(tuple(finer)))
            assert ms.rank() >= mat.rank(), trial
