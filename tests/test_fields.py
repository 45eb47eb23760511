"""Field descriptors: parsing, root predicates, scalar centers, gates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edimkit.errors import InternalInconsistency, ParseError
from edimkit.fields import (
    algebraically_closed,
    cyclotomic_field,
    explicit_field,
    has_primitive_root,
    is_semi_faithful,
    k_center,
    k_center_rank,
    parse_field,
    rationals,
    supports_splitting,
)
from edimkit.named import alternating, named_group


def test_parse_round_trip():
    for spec in ["Q", "Q(zeta_12)", "algclosed:0", "algclosed:5",
                 "char=2;zeta=7", "char=0;zeta=3,5"]:
        f = parse_field(spec)
        assert parse_field(f.spec()).spec() == f.spec()


def test_parse_normalizes_odd_cyclotomic():
    # an odd-order root of unity forces the doubled even order
    assert parse_field("Q(zeta_3)").spec() == "Q(zeta_6)"
    assert parse_field("Q(zeta_1)").spec() == "Q"
    assert cyclotomic_field(5).cyclotomic_order == 10


def test_parse_errors():
    for bad in ["", "Q(zeta_x)", "algclosed:4", "char=6;zeta=1", "F5", "Q()"]:
        with pytest.raises(ParseError):
            parse_field(bad)
    with pytest.raises(ParseError):
        explicit_field(2, [4])  # no 4th roots of unity in characteristic 2


def test_has_primitive_root_basics():
    q = rationals()
    assert has_primitive_root(q, 1)
    assert has_primitive_root(q, 2)
    assert not has_primitive_root(q, 3)
    k12 = parse_field("Q(zeta_12)")
    for n in (1, 2, 3, 4, 6, 12):
        assert has_primitive_root(k12, n)
    for n in (5, 8, 24):
        assert not has_primitive_root(k12, n)
    assert has_primitive_root(algebraically_closed(0), 997)
    assert not has_primitive_root(algebraically_closed(5), 10)
    f = parse_field("char=2;zeta=7")
    assert has_primitive_root(f, 7)
    assert has_primitive_root(f, 1)
    assert not has_primitive_root(f, 2)
    assert not has_primitive_root(f, 3)


@given(m=st.integers(min_value=1, max_value=100),
       n=st.integers(min_value=1, max_value=100))
@settings(max_examples=200, deadline=None)
def test_cyclotomic_membership_is_divisibility(m, n):
    f = cyclotomic_field(m)
    expected = f.cyclotomic_order % n == 0
    assert has_primitive_root(f, n) == expected


@given(orders=st.sets(st.integers(min_value=1, max_value=40), max_size=5),
       n=st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_explicit_orders_are_divisor_closed(orders, n):
    f = explicit_field(0, orders)
    if has_primitive_root(f, n):
        for d in range(1, n + 1):
            if n % d == 0:
                assert has_primitive_root(f, d)


def test_k_center_examples():
    q8 = named_group("Q8")
    assert k_center(q8, rationals()).order == 2
    assert k_center_rank(q8, rationals()) == 1
    heis = named_group("Heis3")
    assert k_center(heis, rationals()).order == 1
    assert k_center(heis, cyclotomic_field(3)).order == 3
    c12 = named_group("C12")
    assert k_center(c12, rationals()).order == 2
    assert k_center(c12, cyclotomic_field(4)).order == 4
    assert k_center(c12, cyclotomic_field(12)).order == 12


def test_k_center_failed_self_check_is_internal(monkeypatch):
    # a closure that disagrees with the element filter is a bug, not bad input
    c12 = named_group("C12")
    monkeypatch.setattr(c12, "subgroup_closure", lambda gens: frozenset(c12.elements()))
    with pytest.raises(InternalInconsistency):
        k_center(c12, rationals())


def test_k_center_is_memoized_per_field(monkeypatch):
    c12 = named_group("C12")
    closures = []
    closure = c12.subgroup_closure
    monkeypatch.setattr(c12, "subgroup_closure",
                        lambda gens: closures.append(gens) or closure(gens))
    q, k4 = rationals(), cyclotomic_field(4)
    first = k_center(c12, q)
    assert len(closures) == 1
    assert k_center(c12, q) is first
    assert k_center_rank(c12, q) == 1
    assert len(closures) == 1
    # another field on the same group gets its own answer and its own check
    assert k_center(c12, k4).order == 4
    assert len(closures) == 2
    assert k_center(c12, q).order == 2
    # an equal descriptor built anew hits the same entry
    assert k_center(c12, parse_field("Q")) is first
    assert len(closures) == 2


def test_semi_faithful():
    s3 = named_group("S3")
    assert is_semi_faithful(s3, rationals())
    assert is_semi_faithful(s3, algebraically_closed(2))  # foot is C3
    assert not is_semi_faithful(s3, algebraically_closed(3))
    q8 = named_group("Q8")
    assert not is_semi_faithful(q8, algebraically_closed(2))
    a5 = alternating(5)
    assert is_semi_faithful(a5, algebraically_closed(2))  # simple nonabelian


def test_supports_splitting():
    s3 = named_group("S3")
    assert not supports_splitting(s3, rationals())
    assert supports_splitting(s3, cyclotomic_field(6))
    assert supports_splitting(s3, algebraically_closed(0))
    assert not supports_splitting(s3, algebraically_closed(2))
    assert supports_splitting(s3, parse_field("char=5;zeta=6"))
