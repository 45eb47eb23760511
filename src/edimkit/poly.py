"""Sparse multivariate polynomials with int coefficients, `Fraction` only
after division.

Monomials are exponent tuples over a fixed variable list; parsing accepts a
small expression grammar (+, -, *, ^ or **, parentheses, integer and rational
literals) via the Python ast module.  A coefficient is a Python int until a
division by a constant (`/` in the grammar, or `scale` by a non-integer)
makes it a `Fraction`; both print alike, so `render` does not depend on which
one a term holds.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from typing import Sequence

from .errors import ParseError


def _add_terms(out: dict, terms: dict, sign: int = 1) -> dict:
    """out += sign * terms, in place; zero coefficients may remain."""
    for m, c in terms.items():
        out[m] = out.get(m, 0) + sign * c
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple([x + y for x, y in zip(m1, m2)])
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _pow_terms(terms: dict, k: int, one: tuple) -> dict:
    """terms ** k for k >= 0; `one` is the exponent tuple of the constant 1."""
    if k == 0:
        return {one: 1}
    if len(terms) == 1:
        (m, c), = terms.items()
        return {tuple([e * k for e in m]): c ** k}
    result = {one: 1}
    while True:
        if k & 1:
            result = _mul_terms(result, terms)
        k >>= 1
        if not k:
            return result
        terms = _mul_terms(terms, terms)


def _coefficient(c):
    """An int stays an int; any other exact number becomes a Fraction."""
    return c if type(c) is int else Fraction(c)


class Polynomial:
    """Immutable sparse polynomial: dict exponent-tuple -> nonzero int or
    Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: _coefficient(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(nvars, {mono: 1})

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
        return Polynomial(self.nvars, _add_terms(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return Polynomial(self.nvars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ParseError("negative polynomial power")
        return Polynomial(self.nvars,
                          _pow_terms(self.terms, k, (0,) * self.nvars))

    def scale(self, q) -> "Polynomial":
        q = _coefficient(q)
        return Polynomial(self.nvars, {m: c * q for m, c in self.terms.items()})

    # -- substitution and evaluation ------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Plug a polynomial in for each variable."""
        if len(images) != self.nvars:
            raise ParseError("substitution arity mismatch")
        nv = images[0].nvars if images else self.nvars
        one = (0,) * nv
        out: dict = {}
        for m, c in self.terms.items():
            term = {one: c}
            for i, e in enumerate(m):
                if e:
                    term = _mul_terms(term, _pow_terms(images[i].terms, e, one))
            _add_terms(out, term)
        return Polynomial(nv, out)

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
            out[dm] = out.get(dm, 0) + c * m[i]
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


def _offset(text: str, lineno: int, col: int) -> int:
    """The 0-based offset in text of character col of line lineno (1-based)
    in text with each ^ written as **, the source that ast parses."""
    lines = text.replace("^", "**").split("\n")
    target = sum(len(s) + 1 for s in lines[:lineno - 1]) + col
    pos = 0
    for i, ch in enumerate(text):
        if pos >= target:
            return i
        pos += 2 if ch == "^" else 1
    return len(text)


def _error(text: str, node: ast.expr, message: str) -> ParseError:
    """A ParseError at node's 0-based character offset in text (ast offsets
    count UTF-8 bytes)."""
    line = text.replace("^", "**").split("\n")[node.lineno - 1]
    col = len(line.encode()[:node.col_offset].decode())
    return ParseError(message, _offset(text, node.lineno, col))


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse +, -, *, ^ (or **), parentheses, integers, and fractions a/b.

    An error in the expression reports the offset of the subexpression that
    it concerns: `x + y/(x - x)` fails at 4, where `y/(x - x)` begins.

    The walk works on plain {exponent tuple: coefficient} dicts, each owned
    by its caller, so sums update their left operand in place; one
    Polynomial is built at the end.
    """
    nv = len(names)
    one = (0,) * nv
    unit = {n: one[:i] + (1,) + one[i + 1:] for i, n in enumerate(names)}
    src = text.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        # exc.offset counts characters from 1; Python gives none for an
        # error at the end of the input (or for a NUL byte)
        pos = _offset(text, exc.lineno, exc.offset - 1) \
            if exc.lineno and exc.offset else len(text)
        raise ParseError(f"bad polynomial expression: {exc.msg}", pos) from None

    def walk(node) -> dict:
        if isinstance(node, ast.BinOp):
            op = node.op
            if isinstance(op, ast.Add):
                return _add_terms(walk(node.left), walk(node.right))
            if isinstance(op, ast.Sub):
                return _add_terms(walk(node.left), walk(node.right), -1)
            if isinstance(op, ast.Mult):
                return _mul_terms(walk(node.left), walk(node.right))
            if isinstance(op, ast.Div):
                right = {m: c for m, c in walk(node.right).items() if c}
                if list(right) != [one]:
                    raise _error(text, node, "division only by nonzero constants")
                q = Fraction(1) / right[one]
                return {m: c * q for m, c in walk(node.left).items()}
            if isinstance(op, ast.Pow):
                exp = node.right
                k = exp.value if isinstance(exp, ast.Constant) else None
                if type(k) is bool:
                    raise _error(text, node, f"unsupported literal {k!r}")
                if type(k) is not int or k < 0:
                    raise _error(text, node, "exponent must be a nonnegative integer")
                return _pow_terms(walk(node.left), k, one)
            raise _error(text, node, f"unsupported operator {type(op).__name__}")
        if isinstance(node, ast.Name):
            if node.id not in unit:
                raise _error(text, node, f"unknown variable {node.id!r}")
            return {unit[node.id]: 1}
        if isinstance(node, ast.Constant):
            # bool is a subclass of int, but True is no polynomial literal
            if type(node.value) is int:
                return {one: node.value}
            raise _error(text, node, f"unsupported literal {node.value!r}")
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return {m: -c for m, c in walk(node.operand).items()}
            if isinstance(node.op, ast.UAdd):
                return walk(node.operand)
            raise _error(text, node, "unsupported unary operator")
        raise _error(text, node, f"unsupported syntax {type(node).__name__}")

    return Polynomial(nv, walk(tree.body))


def _as_constant(p: Polynomial):
    if not p.terms:
        return Fraction(0)
    if len(p.terms) == 1 and (0,) * p.nvars in p.terms:
        return p.terms[(0,) * p.nvars]
    return None
