"""Elementary number theory: primality, factorization, prime powers, primitive roots.

Every argument here is a group order, an element order, a field
characteristic or a Dixon prime, so trial division is fast enough.
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


def is_prime(n: int) -> bool:
    # stops at the least divisor: a characteristic comes from user input
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


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
