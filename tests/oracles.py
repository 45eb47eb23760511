"""Reference computations that only tests use: integer matrix products,
subgroup intersections, elementary-divisor coordinates back to elements,
least primitive roots, kernels modulo a prime, a character table's values
and row order from one tensor-basis dict per value, and a polynomial parser
built on Python's own `ast` module."""

import ast
from fractions import Fraction

import numpy as np

from edimkit.abelian import AbelianStructure
from edimkit.cyclo import _expansion
from edimkit.errors import ParseError
from edimkit.groups import Subgroup
from edimkit.ntheory import factorize
from edimkit.poly import Polynomial, _add_terms, _mul_terms, _pow_terms
from edimkit.snf import rref_mod


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def intersection(a: Subgroup, b: Subgroup) -> Subgroup:
    return Subgroup(a.parent, a.elements & b.elements)


def from_vector(st: AbelianStructure, vec) -> int:
    """The element with elementary-divisor coordinates vec (reduced mod d_i)."""
    key = tuple(v % d for v, d in zip(vec, st.divisors))
    return next(x for x, v in st.to_vec.items() if v == key)


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo the prime q."""
    primes = [p for p, _ in factorize(q - 1)]
    return next(g for g in range(1, q)
                if all(pow(g, (q - 1) // p, q) != 1 for p in primes))


def kernel_mod(mat: np.ndarray, q: int) -> np.ndarray:
    """Basis (rows) of the right kernel {v : mat v = 0} over F_q: the oracle
    for `snf.eigenspaces_mod`."""
    rows, pivots = rref_mod(mat, q)
    free = np.ones(rows.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), rows.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rows[:, free].T % q
    return basis


def tensor_coeffs(e: int, mult) -> dict:
    """Integer coefficients of sum_t mult[t] zeta_e^(t e / len(mult)) in the
    tensor basis of Q(zeta_e) that `cyclo` uses, one expansion per count:
    the oracle for `chartab.CharacterTable.tensor_coefficients`."""
    step = e // len(mult)
    out: dict = {}
    for t, m in enumerate(mult.tolist()):
        if m:
            sign, keys = _expansion(e, t * step)
            for key in keys:
                out[key] = out.get(key, 0) + sign * m
    return {key: c for key, c in out.items() if c}


def table_values(t) -> list[list[dict]]:
    """Every value of table t as a dict of tensor-basis coefficients."""
    return [[tensor_coeffs(t.conductor, m[i]) for m in t.multiplicities]
            for i in range(t.n_classes)]


def row_order(t) -> list[int]:
    """The rows of t by degree, then by the values' sparse (key, coefficient)
    lists: the order `chartab._sorted_rows` must give."""
    values = table_values(t)
    return sorted(range(t.n_classes), key=lambda i: (
        t.degrees[i], [sorted(v.items()) for v in values[i]]))


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


def ast_parse_polynomial(text: str, names) -> Polynomial:
    """`poly.parse_polynomial` as it was on Python's parser: `^` becomes
    `**`, `ast.parse` reads the text, and a walk over the tree evaluates it.
    It accepts whatever Python's grammar does (hex literals, `_` digit
    separators, comments) and rejects leading indentation and line breaks
    outside parentheses."""
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
