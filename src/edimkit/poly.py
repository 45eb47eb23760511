"""Sparse multivariate polynomials with int coefficients, `Fraction` only
after division.

Monomials are exponent tuples over a fixed variable list; `parse_polynomial`
reads a small expression grammar (+, -, *, / by constants, ^ or ** to integer
literals, parentheses, decimal integer literals and the declared names) with
one regex tokenizer pass and a recursive-descent parser, Python's precedence
and associativity included.  A coefficient is a Python int until a
division by a constant (`/` in the grammar, or `scale` by a non-integer)
makes it a `Fraction`; both print alike, so `render` does not depend on which
one a term holds.
"""

from __future__ import annotations

import re
import sys
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


def _decimal(c) -> str:
    """str(c) for an int or Fraction c, also past Python's limit on the
    digits of an int-to-str conversion: an int is cut by divmod into halves
    until each half converts."""
    try:
        return str(c)
    except ValueError:
        pass
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return _decimal(c.numerator)
        return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"
    if c < 0:
        return "-" + _decimal(-c)
    half = c.bit_length() * 3 // 20     # about half of c's decimal digits
    high, low = divmod(c, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def _integer(digits: str) -> int:
    """int(digits) for a decimal literal, also past Python's limit on the
    digits of a str-to-int conversion: a long literal is read in halves."""
    try:
        return int(digits)
    except ValueError:
        half = len(digits) // 2
        return _integer(digits[:-half]) * 10 ** half + _integer(digits[-half:])


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
                parts.append(_decimal(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{_decimal(c)}*{body}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    def __repr__(self):
        return self.render([f"v{i}" for i in range(self.nvars)])


# One token per match: a name, `**` (before its one-character prefix), a
# number with a decimal point as one (rejected) literal, a decimal integer
# without leading zeros (`0+` or `[1-9][0-9]*`, so `007`, `0x10` and `1_000`
# split into adjacent tokens), or any other single non-blank character.  So
# `findall` skips exactly the blanks ` \t\n\r\f`.
_TOKEN = re.compile(r"[^\W\d]\w*|\*\*|[0-9]+\.[0-9]*|\.[0-9]+|[1-9][0-9]*|0+"
                    r"|[^ \t\n\r\f]")
_DIGITS = frozenset("0123456789")
_UNARY = frozenset("+-~")
_BOOLS = frozenset(("True", "False"))
_TRAILING = frozenset(("^", "**", "("))  # what makes a literal no exponent


def _is_int(tok: str) -> bool:
    return tok[:1] in _DIGITS and "." not in tok


def _is_float(tok: str) -> bool:
    # no other token of two or more characters holds a '.'
    return len(tok) > 1 and "." in tok


class _Parser:
    """Recursive descent over the tokens of one expression, with Python's
    precedence and associativity:

        expression → term (('+' | '-') term)*
        term       → factor (('*' | '/') factor)*
        factor     → ('-' | '+') factor | atom call* (('**' | '^') factor)?
        atom       → name | integer | '(' expression ')'

    An exponent must be an integer literal, perhaps parenthesized.  `%`,
    `~`, calls, `True`, `False` and numbers with a decimal point are parsed
    only to be reported.

    Values are plain {exponent tuple: coefficient} dicts.  A term whose
    factors are declared names, integers and their literal powers builds
    one exponent list and one coefficient; other factors go through
    `_mul_terms` and `_pow_terms`.  A syntax error raises at once; the
    first error of meaning is kept in `error` while parsing goes on, so a
    later syntax error wins over it, and costs no arithmetic (`ready`).
    Offsets are characters of the input, recomputed from the tokens only
    when an error is raised.
    """

    __slots__ = ("text", "names", "toks", "i", "index", "one", "error", "checked")

    def __init__(self, text: str, names: Sequence[str]):
        self.text = text
        self.names = names
        self.toks = _TOKEN.findall(text)
        self.toks.append("")        # end of input
        self.i = 0
        # only identifiers are names, as in Python; the end marker is none
        self.index = {n: i for i, n in enumerate(names) if n.isidentifier()}
        self.one = (0,) * len(names)
        self.error = None           # (token index, message), the first one
        self.checked = False        # whether a dry parse found no syntax error

    def fail(self, i: int, message: str) -> None:
        if self.error is None:
            self.error = (i, message)

    def ready(self) -> bool:
        """Whether to compute a constant's power, or a power or product of
        parsed factors: only while no error is known.  The first call parses the whole input once
        more, as if an error were known, so a syntax error anywhere raises
        before any such arithmetic."""
        if self.error is None and not self.checked:
            dry = _Parser(self.text, self.names)
            dry.error = (0, "")
            dry.parse()
            self.checked = True
        return self.error is None

    def parse(self) -> dict:
        terms = self.expression()
        if self.toks[self.i]:
            raise self.syntax_error(self.i)
        return terms

    def syntax_error(self, i: int) -> ParseError:
        """The error for token i: an unmatched ')' or a '(' never closed
        anywhere in the input wins, as in Python's tokenizer."""
        offsets = self.offsets()
        opened = []
        for j, tok in enumerate(self.toks):
            if tok == "(":
                opened.append(j)
            elif tok == ")":
                if not opened:
                    return ParseError("bad polynomial expression: unmatched ')'",
                                      offsets[j])
                opened.pop()
        if opened:
            return ParseError("bad polynomial expression: '(' was never closed",
                              offsets[opened[-1]])
        return ParseError("bad polynomial expression: invalid syntax", offsets[i])

    def offsets(self) -> list:
        """The character offset of each token, and of the end of input."""
        text = self.text
        return [m.start() for m in _TOKEN.finditer(text)] + [len(text)]

    def expression(self) -> dict:
        toks, index, one = self.toks, self.index, self.one
        i = self.i
        out: dict = {}
        sign = 1
        while True:
            start = i               # a term's errors are reported here
            coef = 1
            exps = [0] * len(one)
            rest = None             # product of the factors off the fast path
            op = "*"
            while True:
                f = i
                tok = toks[i]
                neg = False
                while tok == "-" or tok == "+":
                    if tok == "-":
                        neg = not neg
                    i += 1
                    tok = toks[i]
                var = index.get(tok)
                k = None
                if var is not None or tok[:1] in _DIGITS and "." not in tok:
                    nxt = toks[i + 1]
                    if nxt == "^" or nxt == "**":
                        lit = toks[i + 2]
                        if lit[:1] in _DIGITS and "." not in lit \
                                and toks[i + 3] not in _TRAILING:
                            k = int(lit)
                            i += 3
                    elif nxt != "(":
                        k = 1
                        i += 1
                if k is not None:
                    if var is not None and k:
                        if op == "*":
                            exps[var] += k
                            if neg:
                                coef = -coef
                        elif op == "/":
                            self.fail(start, "division only by nonzero constants")
                    else:
                        # a constant's power waits for `ready` too
                        c = 1 if var is not None or k > 1 and not self.ready() \
                            else _integer(tok) ** k
                        if neg:
                            c = -c
                        if op == "*":
                            coef *= c
                        elif op == "/":
                            if c:
                                coef *= Fraction(1) / c
                            else:
                                self.fail(start, "division only by nonzero constants")
                else:
                    self.i = f
                    value = self.factor()
                    i = self.i
                    if op == "*":
                        if rest is None:
                            rest = value
                        elif self.ready():
                            rest = _mul_terms(rest, value)
                    elif op == "/":
                        value = {m: c for m, c in value.items() if c}
                        if list(value) == [one]:
                            coef *= Fraction(1) / value[one]
                        else:
                            self.fail(start, "division only by nonzero constants")
                op = toks[i]
                if op == "%":
                    self.fail(start, "unsupported operator Mod")
                elif op != "*" and op != "/":
                    break
                i += 1
            if rest is None:
                m = tuple(exps)
                out[m] = out.get(m, 0) + sign * coef
            elif self.error is None:
                _add_terms(out, _mul_terms({tuple(exps): coef}, rest), sign)
            op = toks[i]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                self.i = i
                return out
            i += 1

    def factor(self) -> dict:
        toks, one = self.toks, self.one
        i = self.i
        neg = False
        tok = toks[i]
        while tok in _UNARY:
            if tok == "-":
                neg = not neg
            elif tok == "~":
                self.fail(i, "unsupported unary operator")
            i += 1
            tok = toks[i]
        start = i
        value: dict = {}
        if tok and tok != "(" and toks[i + 1] == "(":
            self.fail(i, "unsupported syntax Call")   # before the callee's errors
        if tok == "(":
            self.i = i + 1
            value = self.expression()
            i = self.i
            if toks[i] != ")":
                raise self.syntax_error(i)
        elif tok in self.index:
            mono = [0] * len(one)
            mono[self.index[tok]] = 1
            value = {tuple(mono): 1}
        elif _is_int(tok):
            value = {one: _integer(tok)}
        elif _is_float(tok):
            self.fail(i, f"unsupported literal {float(tok)!r}")
        elif tok in _BOOLS:
            self.fail(i, f"unsupported literal {tok}")
        elif tok[:1] == "_" or tok[:1].isalpha():
            self.fail(i, f"unknown variable {tok!r}")
        else:
            raise self.syntax_error(i)
        i += 1
        while toks[i] == "(":
            self.i = i + 1
            if toks[i + 1] != ")":
                self.expression()
            i = self.i
            if toks[i] != ")":
                raise self.syntax_error(i)
            i += 1
            self.fail(start, "unsupported syntax Call")
        if toks[i] == "^" or toks[i] == "**":
            # the exponent must be an integer literal, perhaps parenthesized
            i += 1
            j = i
            while toks[j] == "(":
                j += 1
            lit, n = toks[j], j - i
            if (_is_int(lit) or lit in _BOOLS and lit not in self.index) \
                    and toks[j + 1:j + 1 + n] == [")"] * n \
                    and toks[j + 1 + n] not in _TRAILING:
                i = j + 1 + n
                if lit in _BOOLS:
                    self.fail(start, f"unsupported literal {lit}")
                elif self.ready():
                    value = _pow_terms(value, int(lit), one)
            else:
                self.fail(start, "exponent must be a nonnegative integer")
                self.i = i
                self.factor()
                i = self.i
        self.i = i
        return {m: -c for m, c in value.items()} if neg else value


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse `+ - * / ^` (or `**`), parentheses, decimal integers and the
    declared names; `/` only by a nonzero constant, `^` only to an integer
    literal.

    An error reports the character offset of the subexpression it concerns:
    `x + y/(x - x)` fails at 4, where `y/(x - x)` begins.
    """
    p = _Parser(text, names)
    try:
        terms = p.parse()
    except RecursionError:
        raise ParseError("bad polynomial expression: too deeply nested") from None
    except ValueError:      # an exponent past int()'s digit limit
        raise ParseError("bad polynomial expression: an exponent of more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if p.error is not None:
        i, message = p.error
        raise ParseError(message, p.offsets()[i])
    return Polynomial(len(names), terms)


def _as_constant(p: Polynomial):
    if not p.terms:
        return Fraction(0)
    if len(p.terms) == 1 and (0,) * p.nvars in p.terms:
        return p.terms[(0,) * p.nvars]
    return None
