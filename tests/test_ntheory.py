"""Shared number theory, rational row reduction and the inverse that Smith
normal form returns, checked by brute force."""

import math
import random
from fractions import Fraction

import pytest

from edimkit.engine import conjectural_edim
from edimkit.errors import BackendLimit
from edimkit.fields import cyclotomic_field
from edimkit.named import named_group
from edimkit.ntheory import factorize, is_prime, prime_power_base, primitive_root
from edimkit.snf import identity, mat_mul, rational_rref, smith_normal_form

N = 2000
PRIMES = [p for p in range(2, N + 1) if all(p % d for d in range(2, p))]


def test_is_prime_brute_force():
    assert [n for n in range(1, N + 1) if is_prime(n)] == PRIMES


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # each is a strong pseudoprime to every prime base up to some bound
    assert not is_prime(n)


def test_is_prime_is_bounded_above_the_deterministic_range():
    assert not is_prime(3 * 2 ** 89)        # a small factor still decides
    assert not is_prime(43 ** 16)           # least factor above the bases
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))  # no small factor
    with pytest.raises(BackendLimit):
        is_prime(2 ** 89 - 1)


def test_is_prime_against_trial_division():
    rng = random.Random(5)
    samples = [rng.randrange(10 ** 6, 10 ** 10) for _ in range(300)]
    samples += [2 ** 31 - 1, 2 ** 61 - 1, 998244353, 10 ** 9 + 7]
    for n in samples:
        if n < 10 ** 10:
            expect = all(n % d for d in range(2, math.isqrt(n) + 1))
        else:
            expect = True  # Mersenne prime 2^61 - 1
        assert is_prime(n) == expect, n


def test_factorize_brute_force():
    for n in range(1, N + 1):
        fact = factorize(n)
        assert math.prod(p ** a for p, a in fact) == n
        assert [p for p, _ in fact] == sorted(p for p in PRIMES if n % p == 0)
        assert all(a >= 1 and n % p ** a == 0 and n % p ** (a + 1) for p, a in fact)


def test_prime_power_base_brute_force():
    powers = {p ** a: p for p in PRIMES for a in range(1, 11) if p ** a <= N}
    for n in range(1, N + 1):
        assert prime_power_base(n) == powers.get(n), n


def test_prime_power_base_of_one_is_none():
    # the identity has order 1 = p^0 for every p; a p-part filter must admit
    # it explicitly, since prime_power_base(1) and prime_power_base(6) are
    # both None
    assert prime_power_base(1) is None and prime_power_base(6) is None
    cj = conjectural_edim(named_group("C6"), cyclotomic_field(6))
    assert cj.per_prime == {2: (1, 1), 3: (1, 1)}
    assert cj.value == 1


def _multiplicative_order(g, q):
    k, x = 1, g
    while x != 1:
        x = x * g % q
        k += 1
    return k


def test_primitive_root_brute_force():
    for q in PRIMES:
        expect = next(g for g in range(1, q) if _multiplicative_order(g, q) == q - 1)
        assert primitive_root(q) == expect, q


def test_rational_rref_rank_deficient():
    mat = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [0, 2, 2]]
    rows, pivots = rational_rref(mat)
    assert pivots == [0, 1]
    assert rows == [[1, 0, 1], [0, 1, 1]]
    assert all(isinstance(x, Fraction) for row in rows for x in row)
    assert rational_rref([]) == ([], [])
    assert rational_rref([[0, 0], [0, 0]]) == ([], [])


def test_unimodular_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n + 1)]
        _, _, q, qinv = smith_normal_form(mat)
        assert mat_mul(q, qinv) == identity(n) == mat_mul(qinv, q)
