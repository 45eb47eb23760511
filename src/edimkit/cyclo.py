"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A value is a sparse rational combination of basis powers zeta_e^t.  The basis
is the tensor basis over the prime-power factors of e: exponent t is a basis
key when each CRT component t mod p^a lies below phi(p^a).  Reduction of an
out-of-range component uses the prime-power cyclotomic relation
zeta^((p-1)p^(a-1)) = -(1 + zeta^(p^(a-1)) + ... + zeta^((p-2)p^(a-1))),
applied once per component.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistency
from .ntheory import factorize


@lru_cache(maxsize=None)
def _expansion(e: int, t: int):
    """Expand zeta_e^t into the tensor basis: returns (sign, tuple of basis keys)."""
    t %= e
    sign = 1
    # per prime power, list of exponents the component expands into
    comp_lists = []
    for p, a in factorize(e):
        pa = p ** a
        rest = e // pa
        tp = t % pa
        phi = (p - 1) * p ** (a - 1)
        if tp < phi:
            comp_lists.append((pa, rest, [tp]))
        else:
            r = tp - phi
            sign = -sign
            comp_lists.append((pa, rest, [j * p ** (a - 1) + r for j in range(p - 1)]))
    keys = [0]
    for pa, rest, exps in comp_lists:
        # CRT: t == tp (mod pa); contribution tp * rest * inv(rest mod pa)
        unit = rest * pow(rest, -1, pa) % e
        keys = [(k + x * unit) % e for k in keys for x in exps]
    return sign, tuple(keys)


class Cyclotomic:
    """Immutable element of Q(zeta_e), canonically reduced."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs: dict):
        self.e = e
        self.coeffs = {t: c for t, c in coeffs.items() if c != 0}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(e: int) -> "Cyclotomic":
        return Cyclotomic(e, {})

    @staticmethod
    def from_rational(e: int, q) -> "Cyclotomic":
        return Cyclotomic(e, {0: Fraction(q)})

    @staticmethod
    def zeta_power(e: int, t: int) -> "Cyclotomic":
        sign, keys = _expansion(e, t)
        out: dict = {}
        for k in keys:
            out[k] = out.get(k, 0) + sign
        return Cyclotomic(e, {k: Fraction(v) for k, v in out.items()})

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return all(t == 0 for t in self.coeffs)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise InternalInconsistency(f"value is not rational: {self.coeffs}")
        return self.coeffs.get(0, Fraction(0))

    def as_int(self) -> int:
        q = self.as_rational()
        if q.denominator != 1:
            raise InternalInconsistency(f"value is not an integer: {q}")
        return int(q)

    # -- arithmetic -----------------------------------------------------

    def _require_same(self, other: "Cyclotomic"):
        if self.e != other.e:
            raise InternalInconsistency(
                f"conductor mismatch: {self.e} vs {other.e}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.e, other)
        self._require_same(other)
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, Fraction(0)) + c
        return Cyclotomic(self.e, out)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.e, {t: -c for t, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.e, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.e, {t: c * other for t, c in self.coeffs.items()})
        self._require_same(other)
        out: dict = {}
        for t1, c1 in self.coeffs.items():
            for t2, c2 in other.coeffs.items():
                prod = c1 * c2
                sign, keys = _expansion(self.e, t1 + t2)
                term = prod if sign == 1 else -prod
                for k in keys:
                    out[k] = out.get(k, Fraction(0)) + term
        return Cyclotomic(self.e, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta^t -> zeta^(-t)."""
        return self.galois(-1)

    def galois(self, j: int) -> "Cyclotomic":
        """Galois twist zeta^t -> zeta^(j t); j must be invertible mod e."""
        if math.gcd(j % self.e if self.e > 1 else 1, self.e) != 1:
            raise InternalInconsistency(f"galois exponent {j} not coprime to {self.e}")
        out: dict = {}
        for t, c in self.coeffs.items():
            sign, keys = _expansion(self.e, j * t)
            term = c if sign == 1 else -c
            for k in keys:
                out[k] = out.get(k, Fraction(0)) + term
        return Cyclotomic(self.e, out)

    def lift(self, e2: int) -> "Cyclotomic":
        """Reinterpret in the larger field Q(zeta_e2), e | e2."""
        if e2 == self.e:
            return self
        if e2 % self.e != 0:
            raise InternalInconsistency(f"cannot lift conductor {self.e} into {e2}")
        f = e2 // self.e
        out: dict = {}
        for t, c in self.coeffs.items():
            sign, keys = _expansion(e2, t * f)
            term = c if sign == 1 else -c
            for k in keys:
                out[k] = out.get(k, Fraction(0)) + term
        return Cyclotomic(e2, out)

    # -- comparison / hashing / display ---------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.e, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.e == other.e and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.e, frozenset(self.coeffs.items())))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for t, c in sorted(self.coeffs.items()):
            if t == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z{self.e}^{t}")
        return " + ".join(parts)
