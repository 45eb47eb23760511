"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are exponent tuples over a fixed variable list; parsing accepts a
small expression grammar (+, -, *, ^ or **, parentheses, integer and rational
literals) via the Python ast module.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from typing import Sequence

from .errors import ParseError


class Polynomial:
    """Immutable sparse polynomial: dict exponent-tuple -> nonzero Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(nvars, {mono: Fraction(1)})

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ParseError("negative polynomial power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, q) -> "Polynomial":
        q = Fraction(q)
        return Polynomial(self.nvars, {m: c * q for m, c in self.terms.items()})

    # -- substitution and evaluation ------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Plug a polynomial in for each variable."""
        if len(images) != self.nvars:
            raise ParseError("substitution arity mismatch")
        nv = images[0].nvars if images else self.nvars
        out = Polynomial.zero(nv)
        for m, c in self.terms.items():
            term = Polynomial.constant(nv, c)
            for i, e in enumerate(m):
                if e:
                    term = term * (images[i] ** e)
            out = out + term
        return out

    def evaluate(self, point: Sequence) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def partial(self, i: int) -> "Polynomial":
        out: dict = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            dm = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            out[dm] = out.get(dm, Fraction(0)) + c * m[i]
        return Polynomial(self.nvars, out)

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def render(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    def __repr__(self):
        return self.render([f"v{i}" for i in range(self.nvars)])


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse +, -, *, ^ (or **), parentheses, integers, and fractions a/b."""
    index = {n: i for i, n in enumerate(names)}
    nv = len(names)
    src = text.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"bad polynomial expression: {exc.msg}",
                         exc.offset or 0) from None

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add):
                return walk(node.left) + walk(node.right)
            if isinstance(node.op, ast.Sub):
                return walk(node.left) - walk(node.right)
            if isinstance(node.op, ast.Mult):
                return walk(node.left) * walk(node.right)
            if isinstance(node.op, ast.Div):
                right = walk(node.right)
                if not isinstance(right, Polynomial):
                    return walk(node.left) * Fraction(1, 1) / right  # pragma: no cover
                const = _as_constant(right)
                if const is None or const == 0:
                    raise ParseError("division only by nonzero constants")
                return walk(node.left).scale(Fraction(1) / const)
            if isinstance(node.op, ast.Pow):
                exp = node.right
                if not (isinstance(exp, ast.Constant) and isinstance(exp.value, int)
                        and exp.value >= 0):
                    raise ParseError("exponent must be a nonnegative integer")
                return walk(node.left) ** exp.value
            raise ParseError(f"unsupported operator {type(node.op).__name__}")
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return -walk(node.operand)
            if isinstance(node.op, ast.UAdd):
                return walk(node.operand)
            raise ParseError("unsupported unary operator")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return Polynomial.constant(nv, node.value)
            raise ParseError(f"unsupported literal {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id not in index:
                raise ParseError(f"unknown variable {node.id!r}")
            return Polynomial.variable(nv, index[node.id])
        raise ParseError(f"unsupported syntax {type(node).__name__}")

    return walk(tree)


def _as_constant(p: Polynomial):
    if not p.terms:
        return Fraction(0)
    if len(p.terms) == 1 and (0,) * p.nvars in p.terms:
        return p.terms[(0,) * p.nvars]
    return None
