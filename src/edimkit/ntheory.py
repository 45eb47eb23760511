"""Elementary number theory: primality, factorization, prime powers, primitive roots.

Factorization is by trial division: every argument is a group order, an
element order or q - 1 for a Dixon prime.  Primality is Miller-Rabin with a
base set that is deterministic below 3.3e24, so the certificate primes of
`chartab` (up to 3e9) are tested in microseconds.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from .errors import InternalInconsistency


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple:
    """Prime factorization of n >= 1 as ((p, a), ...) with p increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# Miller-Rabin with these bases is exact for n < 3.317e24 (Sorenson-Webster)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % p == 0 for p in _MR_BASES):
        return False
    if n >= _MR_LIMIT:
        # beyond the deterministic range: trial division, which stops at the
        # least divisor (a characteristic comes from user input)
        return all(n % d for d in range(43, math.isqrt(n) + 1, 2))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_base(n: int) -> Optional[int]:
    """The prime p with n = p^a for some a >= 1, or None (also for n = 1)."""
    if n < 2:
        return None
    fact = factorize(n)
    return fact[0][0] if len(fact) == 1 else None


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo the prime q."""
    primes = [p for p, _ in factorize(q - 1)]
    for g in range(1, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in primes):
            return g
    raise InternalInconsistency(f"no primitive root mod {q}")
