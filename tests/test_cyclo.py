"""Exact cyclotomic arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edimkit.cyclo import Cyclotomic


def zeta(e, t=1):
    return Cyclotomic.zeta_power(e, t)


def test_root_of_unity_relations():
    for e in (2, 3, 4, 5, 6, 8, 12, 15):
        z = zeta(e)
        acc = Cyclotomic.from_rational(e, 1)
        for _ in range(e):
            acc = acc * z
        assert acc == 1  # z^e = 1
        assert zeta(e, e) == 1
        assert zeta(e, e + 1) == z


def test_sum_of_all_roots_vanishes():
    for e in (3, 4, 6, 8, 12, 30, 840):
        total = Cyclotomic.zero(e)
        for t in range(e):
            total = total + zeta(e, t)
        assert total.is_zero()


def test_primitive_root_sums_are_moebius():
    # sum of primitive e-th roots equals the Moebius function of e
    import math

    def moebius(n):
        out = 1
        d = 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                out = -out
            d += 1
        if n > 1:
            out = -out
        return out

    for e in (2, 3, 4, 5, 6, 8, 9, 10, 12, 30):
        total = Cyclotomic.zero(e)
        for t in range(e):
            if math.gcd(t, e) == 1:
                total = total + zeta(e, t)
        assert total == moebius(e), e


def test_rational_detection():
    z = zeta(4)
    assert (z * z) == -1
    assert (z * z).is_rational()
    assert (z * z * z * z).as_int() == 1
    assert not z.is_rational()
    v = zeta(3) + zeta(3, 2)
    assert v.as_rational() == Fraction(-1)


def test_conjugate_and_norm():
    z = zeta(5)
    v = 1 + z
    n = v * v.conjugate()
    # |1 + zeta_5|^2 = 2 + z + z^4, not rational; but product over all
    # conjugates is the norm = Phi_5(-1) = 1
    prod = Cyclotomic.from_rational(5, 1)
    for j in (1, 2, 3, 4):
        prod = prod * (1 + zeta(5, j))
    assert prod.as_int() == 1


def test_galois_is_multiplicative():
    z = zeta(12)
    v = 2 + z + z * (3 * z)
    for j in (1, 5, 7, 11):
        g = v.galois(j)
        # applying the inverse twist returns the original
        jinv = pow(j, -1, 12)
        assert g.galois(jinv) == v


def test_lift_preserves_values():
    v = zeta(3) + 2
    w = v.lift(12)
    assert w.e == 12
    # z3 lifted equals z12^4
    assert w == zeta(12, 4) + 2


@given(e=st.sampled_from([2, 3, 4, 6, 8, 12]),
       a=st.integers(0, 11), b=st.integers(0, 11), c=st.integers(0, 11))
@settings(max_examples=200, deadline=None)
def test_ring_axioms(e, a, b, c):
    x, y, z = zeta(e, a % e), zeta(e, b % e), zeta(e, c % e)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == zeta(e, (a + b) % e)
