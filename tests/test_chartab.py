"""Character tables: degrees, orthogonality, kernels, scalar actions, cache."""

import copy
import json
import math
import os

import numpy as np
import pytest

import edimkit
from edimkit import chartab
from edimkit.chartab import (
    CharacterTable,
    _cache_path,
    _certificate_primes,
    _class_constants,
    _dixon_schneider,
    all_central_characters,
    central_character,
    character_table,
    f_value,
    gcd_min_condition,
    kernel,
    rep_chi_degrees,
)
from edimkit.cyclo import Cyclotomic
from edimkit.errors import (
    BackendLimit,
    InternalInconsistency,
    NonScalar,
    NotCentral,
    OutOfScope,
)
from edimkit.fields import algebraically_closed, cyclotomic_field, rationals
from edimkit.groups import (
    PermBackend,
    Subgroup,
    direct_product,
    from_generators,
    from_table,
)
from edimkit.named import (
    alternating,
    corpus,
    load_group,
    named_group,
    quaternion,
    symmetric,
)
from edimkit.ntheory import is_prime

FIXTURES = os.path.join(os.path.dirname(edimkit.__file__), "fixtures")
SMALL_FIXTURES = sorted(f for f in os.listdir(FIXTURES) if f != "2a8.json")

KNOWN_DEGREES = {
    "C4": [1, 1, 1, 1],
    "S3": [1, 1, 2],
    "Q8": [1, 1, 1, 1, 2],
    "D4": [1, 1, 1, 1, 2],
    "A4": [1, 1, 1, 3],
    "S4": [1, 1, 2, 3, 3],
    "Heis3": [1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3],
    "D5": [1, 1, 2, 2],
    "C2xC2xC3": [1] * 12,
}


@pytest.mark.parametrize("name,degrees", sorted(KNOWN_DEGREES.items()))
def test_known_degree_lists(name, degrees):
    g = named_group(name)
    t = character_table(g, use_cache=False)
    assert t.degrees == degrees
    assert sum(d * d for d in t.degrees) == g.order


def test_degree_divides_order():
    for name in ["S4", "Q8", "Heis3", "A4"]:
        g = named_group(name)
        t = character_table(g, use_cache=False)
        assert all(g.order % d == 0 for d in t.degrees)


def test_orthogonality_a5_s5():
    for g in (alternating(5), symmetric(5)):
        t = character_table(g, use_cache=False)
        t.verify_orthogonality()
    assert character_table(alternating(5), use_cache=False).degrees == \
        [1, 3, 3, 4, 5]
    assert character_table(symmetric(5), use_cache=False).degrees == \
        [1, 1, 4, 4, 5, 5, 6]


def test_row_orthogonality_by_hand():
    g = named_group("S3")
    t = character_table(g, use_cache=False)
    values = t.cyclotomic_values()
    for i in range(3):
        for j in range(3):
            acc = Cyclotomic.zero(t.conductor)
            for k in range(3):
                acc = acc + values[i][k] * \
                    values[j][t.inverse_class[k]].scale(t.class_sizes[k])
            expected = g.order if i == j else 0
            assert acc == expected


def test_kernels_s3():
    g = named_group("S3")
    t = character_table(g, use_cache=False)
    kernels = sorted(len(kernel(t, i).elements) for i in range(3))
    # trivial character -> G; sign character -> A3; 2-dim row -> trivial
    assert kernels == [1, 3, 6]


def test_faithful_rows_q8():
    g = named_group("Q8")
    t = character_table(g, use_cache=False)
    faithful = [i for i in range(t.n_classes)
                if kernel(t, i).elements == frozenset([0])]
    assert [t.degrees[i] for i in faithful] == [2]


def test_central_characters_q8():
    g = named_group("Q8")
    t = character_table(g, use_cache=False)
    z = g.center()
    keys = set()
    for i in range(t.n_classes):
        cc = central_character(t, i, z)
        keys.add(cc.key())
    assert len(keys) == 2  # trivial and the faithful scalar action
    chars = all_central_characters(t, z)
    assert len(chars) == 2
    for chi in chars:
        degs = rep_chi_degrees(t, z, chi)
        assert degs in ([1, 1, 1, 1], [2])


@pytest.mark.parametrize("fixture", SMALL_FIXTURES)
def test_kernels_and_central_characters_agree_with_values(fixture):
    # reference: compare cyclotomic values with d and with d zeta^s
    g = load_group(os.path.join(FIXTURES, fixture))
    t = character_table(g, use_cache=False)
    values, cmap, e, z = t.cyclotomic_values(), g.class_map(), t.conductor, g.center()
    for i, d in enumerate(t.degrees):
        assert kernel(t, i).elements == \
            {x for x in g.elements() if values[i][cmap[x]] == d}
        assert central_character(t, i, z).values == {
            x: next(s for s in range(e)
                    if values[i][cmap[x]] == Cyclotomic.zeta_power(e, s) * d)
            for x in z.elements}


def test_central_character_requires_central():
    g = named_group("S3")
    t = character_table(g, use_cache=False)
    a3 = g.socle()
    with pytest.raises(NotCentral):
        central_character(t, 0, a3)


def test_noncentral_scalar_error():
    g = named_group("D4")
    t = character_table(g, use_cache=False)
    z = g.center()
    # central character is fine on the center for every row
    for i in range(t.n_classes):
        central_character(t, i, z)


def test_f_value_and_gcd_min():
    k4 = cyclotomic_field(4)
    g = named_group("Q8")
    t = character_table(g, use_cache=False)
    z = g.center()
    values = sorted(f_value(t, k4, z, chi)
                    for chi in all_central_characters(t, z))
    assert values == [1, 2]
    assert gcd_min_condition(t, k4, z)
    heis = named_group("Heis3")
    th = character_table(heis, use_cache=False)
    assert gcd_min_condition(th, cyclotomic_field(3), heis.center())


def test_f_value_requires_splitting():
    g = named_group("Q8")
    t = character_table(g, use_cache=False)
    z = g.center()
    chi = all_central_characters(t, z)[0]
    with pytest.raises(OutOfScope):
        f_value(t, rationals(), z, chi)


def test_cache_round_trip(tmp_path):
    g = named_group("S4")
    t1 = character_table(g, cache_dir=str(tmp_path))
    files = list(tmp_path.glob("chartab_*.json"))
    assert len(files) == 1
    t2 = character_table(g, cache_dir=str(tmp_path))
    assert t2.degrees == t1.degrees
    assert t2.conductor == t1.conductor
    for m1, m2 in zip(t1.multiplicities, t2.multiplicities):
        assert np.array_equal(m1, m2)


def test_serialize_round_trip():
    g = named_group("D4")
    t = character_table(g, use_cache=False)
    data = t.serialize()
    t2 = CharacterTable.deserialize(g, data)
    assert t2.degrees == t.degrees
    assert t2.cyclotomic_values() == t.cyclotomic_values()


def test_determinism():
    g = named_group("S4")
    t1 = character_table(g, use_cache=False)
    t2 = character_table(g, use_cache=False)
    assert t1.serialize() == t2.serialize()


# ---------------------------------------------------------------------------
# certified verification


def fraction_orthogonality(t: CharacterTable) -> bool:
    """Both orthogonality relations in exact Fraction-coefficient arithmetic
    (the verifier's reference), plus the degree-square sum."""
    n, order = t.n_classes, t.group.order
    values = t.cyclotomic_values()
    for i in range(n):
        for j in range(i, n):
            acc = Cyclotomic.zero(t.conductor)
            for k in range(n):
                acc = acc + values[i][k] * values[j][t.inverse_class[k]] \
                    * t.class_sizes[k]
            if acc != Cyclotomic.from_rational(t.conductor, order if i == j else 0):
                return False
    for k in range(n):
        for l in range(k, n):
            acc = Cyclotomic.zero(t.conductor)
            for i in range(n):
                acc = acc + values[i][k] * values[i][t.inverse_class[l]]
            expect = order // t.class_sizes[k] if k == l else 0
            if acc != Cyclotomic.from_rational(t.conductor, expect):
                return False
    return sum(d * d for d in t.degrees) == order


def verifier_accepts(t: CharacterTable) -> bool:
    try:
        t.verify_orthogonality()
    except InternalInconsistency:
        return False
    return True


def twist_by_zeta(t):
    # the last row is non-linear or non-trivial; class 1 is not the identity:
    # shifting its eigenvalue multiplicities multiplies the value by zeta
    m = t.multiplicities[1]
    m[-1] = np.roll(m[-1], 1)


def negative_multiplicity(t):
    # one eigenvalue count drops below 0; the row still sums to the degree
    m = t.multiplicities[1]
    m[-1, 1] += m[-1, 0] + 1
    m[-1, 0] = -1


def extra_eigenvalue(t):
    t.multiplicities[1][-1, 0] += 1


def wrong_inverse_class(t):
    k = next((k for k in range(t.n_classes) if t.inverse_class[k] != k), None)
    if k is None:
        # all classes real: make classes 1 and 2 each other's inverse
        t.inverse_class[1], t.inverse_class[2] = 2, 1
    else:
        # k and its inverse class m become real
        m = t.inverse_class[k]
        t.inverse_class[k], t.inverse_class[m] = k, m


def swap_class_sizes(t):
    # two classes of different sizes exchange sizes; the total stays |G|
    k = next(k for k in range(2, t.n_classes) if t.class_sizes[k] != t.class_sizes[1])
    t.class_sizes[1], t.class_sizes[k] = t.class_sizes[k], t.class_sizes[1]


def wrong_class_size(t):
    t.class_sizes[-1] += 1


CORRUPTIONS = [twist_by_zeta, negative_multiplicity, extra_eigenvalue,
               wrong_inverse_class, swap_class_sizes, wrong_class_size]


def _corrupted(t, corrupt):
    bad = copy.copy(t)
    bad.multiplicities = [m.copy() for m in t.multiplicities]
    bad.inverse_class = list(t.inverse_class)
    bad.class_sizes = list(t.class_sizes)
    corrupt(bad)
    return bad


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", ["S4", "Q8xC3", "Heis3"])
def test_verifier_rejects_corrupted_table(name, corrupt):
    t = character_table(named_group(name), use_cache=False)
    with pytest.raises(InternalInconsistency):
        _corrupted(t, corrupt).verify_orthogonality()


def cancelling_negative(t):
    # zeta^a + zeta^(a+h) = 0 for h = ord/2: one count moves from the pair
    # (b, b+h) to the pair (a, a+h), where count b was 0
    k = next(k for k, m in enumerate(t.multiplicities)
             if m.shape[1] >= 4 and m.shape[1] % 2 == 0)
    row = t.multiplicities[k][-1]
    h = len(row) // 2
    b = next(b for b in range(len(row)) if row[b] == 0)
    a = (b + 1) % len(row)
    row[[a, (a + h) % len(row)]] += 1
    row[[b, (b + h) % len(row)]] -= 1


def every_root_added(t):
    # the ord(g_1) roots of unity sum to 0: one more of each eigenvalue
    t.multiplicities[1][-1] += 1


@pytest.mark.parametrize("name, corrupt", [
    ("S4", cancelling_negative), ("Q8xC3", cancelling_negative),
    ("S4", every_root_added), ("Heis3", every_root_added),
])
def test_verifier_rejects_counts_that_keep_the_values(name, corrupt):
    # the values stay orthogonal, so only the count checks can reject these
    t = character_table(named_group(name), use_cache=False)
    bad = _corrupted(t, corrupt)
    assert bad.cyclotomic_values() == t.cyclotomic_values()
    with pytest.raises(InternalInconsistency):
        bad.verify_orthogonality()


@pytest.mark.parametrize("fixture", SMALL_FIXTURES)
def test_verifier_agrees_with_fraction_oracle(fixture):
    g = load_group(os.path.join(FIXTURES, fixture))
    t = character_table(g, use_cache=False)
    assert verifier_accepts(t) and fraction_orthogonality(t)
    if t.n_classes < 3:
        return
    for corrupt in (twist_by_zeta, wrong_inverse_class):
        bad = _corrupted(t, corrupt)
        assert verifier_accepts(bad) == fraction_orthogonality(bad), corrupt.__name__


def _is_prime_by_trial(q):
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


@pytest.mark.parametrize("e, width, bound, count", [
    (1, 5, 100, 1),
    (12, 33, 10 ** 6, 1),
    (168, 33, 10 ** 12, 2),
    (60, 120, 10 ** 30, 4),
])
def test_certificate_primes(e, width, bound, count):
    primes = _certificate_primes(e, width, bound)
    assert len(primes) == count and len(set(primes)) == count
    assert all(q % e == 1 % e and width * q * q < 2 ** 63 for q in primes)
    assert all(_is_prime_by_trial(q) for q in primes)
    assert math.prod(primes) > bound
    # minimal: dropping the smallest prime loses the bound
    assert math.prod(primes) // min(primes) <= bound


# ---------------------------------------------------------------------------
# class constants and the int64 guard of Dixon-Schneider


def _pair_counts(g, reps, left_divide):
    """a[i, j, k] = #{(x, y) in C_i x C_j : x y = r_k}, from y = x^-1 r_k
    for every x, left_divide(r) giving the list of x^-1 r."""
    cmap = np.array(g.class_map())
    n = len(reps)
    a = np.zeros((n, n, n), dtype=np.int64)
    for k, rk in enumerate(reps):
        np.add.at(a, (cmap, cmap[left_divide(rk)], k), 1)
    return a


@pytest.mark.parametrize("name", sorted(corpus()))
def test_class_constants_count_pairs_on_the_corpus(name):
    g = corpus()[name]
    reps = [min(c) for c in g.conjugacy_classes()]
    expect = _pair_counts(g, reps, lambda r: [g.mult(g.inv(x), r) for x in g.elements()])
    assert np.array_equal(_class_constants(g, reps, np.array(g.class_map())), expect)


def test_class_constants_count_pairs_on_a_permutation_backend(agl_1_67):
    g = agl_1_67
    assert isinstance(g.backend, PermBackend)
    perms = np.array(g.perms)
    inverses = np.argsort(perms, axis=1)
    index = {tuple(p): i for i, p in enumerate(g.perms.tolist())}
    reps = [min(c) for c in g.conjugacy_classes()]
    # x^-1 r as a permutation: x^-1 after r
    expect = _pair_counts(g, reps, lambda r: [index[tuple(p)] for p in
                                              inverses[:, perms[r]].tolist()])
    a = _class_constants(g, reps, np.array(g.class_map()))
    assert np.array_equal(a, expect)
    assert (a.sum(axis=(0, 1)) == g.order).all()


def test_dixon_prime_too_large_for_int64_is_a_backend_limit(monkeypatch):
    # C2^3 has exponent 2 and 8 classes: a prime with 2 q^2 < 2^63 <= 8 q^2
    # must be refused for the width n = 8, not only for the exponent
    g = direct_product(direct_product(named_group("C2"), named_group("C2")),
                       named_group("C2"))
    q = math.isqrt(2 ** 63 // 8) + 1
    while not is_prime(q):
        q += 2
    assert 2 * q * q < 2 ** 63 <= 8 * q * q
    monkeypatch.setattr(chartab, "split_prime", lambda e, bound: q)
    with pytest.raises(BackendLimit):
        _dixon_schneider(g)


# ---------------------------------------------------------------------------
# cache keys: two presentations with equal generator indices


def _regular(g):
    """Right regular permutation representation of g on its generators."""
    return from_generators([[g.mult(x, s) for x in g.elements()]
                            for s in g.generators])


def _c4_semidirect_c4():
    elems = [(i, j) for j in range(4) for i in range(4)]

    def mult(x, y):
        return ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4)

    return from_table(elems, mult, [(1, 0), (0, 1), (1, 1)])


def test_cache_key_separates_presentations(tmp_path):
    g1 = _regular(_c4_semidirect_c4())
    g2 = _regular(direct_product(named_group("C2"), quaternion(8)))
    # equal weak fingerprints and generator indices: the old key collided
    assert g1.generators == g2.generators == [1, 2, 3]
    assert g1.fingerprint(with_generators=False) == \
        g2.fingerprint(with_generators=False)
    assert _cache_path(g1, str(tmp_path)) != _cache_path(g2, str(tmp_path))
    character_table(g1, cache_dir=str(tmp_path))
    t2 = character_table(g2, cache_dir=str(tmp_path))
    assert t2.serialize() == character_table(g2, use_cache=False).serialize()


def test_reload_rejects_other_class_data(tmp_path):
    g = named_group("S4")
    t = character_table(g, use_cache=False)
    data = t.serialize()
    data["class_reps"] = data["class_reps"][::-1]
    path = _cache_path(g, str(tmp_path))
    path.write_text(json.dumps(data))
    t2 = character_table(g, cache_dir=str(tmp_path))
    assert t2.serialize() == t.serialize()
    assert json.loads(path.read_text()) == t.serialize()


def test_reload_takes_the_groups_class_data(tmp_path):
    # equal in value is not equal in output: 3.0 would print as 3.0
    g = named_group("S4")
    t = character_table(g, use_cache=False)
    data = t.serialize()
    data["class_sizes"] = [float(s) for s in data["class_sizes"]]
    _cache_path(g, str(tmp_path)).write_text(json.dumps(data))
    t2 = character_table(g, cache_dir=str(tmp_path))
    assert json.dumps(t2.serialize()) == json.dumps(t.serialize())


def test_reloaded_table_is_verified(tmp_path):
    # a file with the group's class data that fails the certificate is a
    # cache miss: the table is recomputed and the file rewritten
    g = named_group("S4")
    t = character_table(g, cache_dir=str(tmp_path))
    bad = _corrupted(t, twist_by_zeta)
    path = _cache_path(g, str(tmp_path))
    path.write_text(json.dumps(bad.serialize()))
    t2 = character_table(g, cache_dir=str(tmp_path))
    assert t2.serialize() == character_table(g, use_cache=False).serialize()
    assert json.loads(path.read_text()) == t2.serialize()


def cyclotomic_layout(data, t):
    # the former file layout: degrees and fraction-coefficient values
    del data["multiplicities"]
    data["degrees"] = t.degrees
    data["values"] = [[v.serialize() for v in row] for row in t.cyclotomic_values()]


def negative_in_file(data, t):
    row = data["multiplicities"][1][-1]
    row[1] += row[0] + 1
    row[0] = -1


def fraction_in_file(data, t):
    row = data["multiplicities"][1][-1]
    row[0] += 0.5
    row[1] -= 0.5


@pytest.mark.parametrize("damage", [cyclotomic_layout, negative_in_file,
                                    fraction_in_file], ids=lambda f: f.__name__)
def test_unusable_cache_file_is_rewritten(tmp_path, damage):
    g = named_group("S4")
    t = character_table(g, use_cache=False)
    data = t.serialize()
    damage(data, t)
    path = _cache_path(g, str(tmp_path))
    path.write_text(json.dumps(data))
    assert character_table(g, cache_dir=str(tmp_path)).serialize() == t.serialize()
    assert json.loads(path.read_text()) == t.serialize()
