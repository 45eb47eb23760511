"""Answer checks.  Each returns None for a correct answer or a reason string.

The checks compare the CLI's JSON against the hand-written expected file
(see expected.json) and against properties any correct answer has: a
character table must satisfy row orthogonality, a certified interval must
contain the true dimension.  Nothing here imports edimkit.
"""

from __future__ import annotations

import ast
import cmath
import json
import math
from fractions import Fraction

import numpy as np


def verdict(query, rc, out, factors):
    """None if the query's output is correct, else why not."""
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return f"exit {rc}, output is not JSON"
    exp = query["expect"]
    if "engine" in exp and exp["engine"].get("out_of_scope"):
        if rc == 3 and payload.get("error") == "out_of_scope":
            return None
        return f"expected exit 3 out_of_scope, got exit {rc}"
    if rc != 0:
        return f"exit {rc}: {payload.get('error')}: {payload.get('detail')}"
    if "chartab" in exp:
        return _chartab(payload, [factors[f] for f in exp["chartab"]])
    if "engine" in exp:
        return _engine(payload, exp["engine"])
    if "structure" in exp:
        return _structure(payload, exp["structure"])
    return _mhom(payload, exp["mhom"])


# ---------------------------------------------------------------------------
# character tables


def _product(lists):
    out = [1]
    for lst in lists:
        out = [a * b for a in out for b in lst]
    return sorted(out)


def _chartab(p, factors):
    order = math.prod(f["order"] for f in factors)
    want = {
        "order": order,
        "n_classes": math.prod(len(f["class_sizes"]) for f in factors),
        "conductor": math.lcm(*(f["exponent"] for f in factors)),
    }
    for key, value in want.items():
        if p.get(key) != value:
            return f"{key} {p.get(key)} != {value}"
    if sorted(p["degrees"]) != _product([f["degrees"] for f in factors]):
        return "degrees differ from the product of the factors' degrees"
    if sorted(p["class_sizes"]) != _product([f["class_sizes"] for f in factors]):
        return "class sizes differ from the product of the factors' sizes"
    # numeric row orthogonality of the printed values
    e = p["conductor"]
    zeta = [cmath.exp(2j * cmath.pi * t / e) for t in range(e)]
    x = np.array([[sum(float(Fraction(c)) * zeta[int(t) % e]
                       for t, c in v.items()) for v in row]
                  for row in p["values"]])
    if x.shape != (want["n_classes"],) * 2:
        return f"values have shape {x.shape}"
    if not np.allclose(x[:, 0], p["degrees"], atol=1e-6):
        return "identity column differs from the degrees"
    gram = (x * np.array(p["class_sizes"])) @ x.conj().T
    if not np.allclose(gram, order * np.eye(len(x)), atol=1e-6 * order):
        return "rows are not orthonormal"
    return None


# ---------------------------------------------------------------------------
# edim / covdim / rdim


def _engine(p, e):
    if "rdim" in e:
        if p.get("value") != e["rdim"]:
            return f"rdim {p.get('value')} != {e['rdim']}"
        if sum(p.get("dimension_vector", [])) != e["rdim"]:
            return "dimension vector does not add up to rdim"
        return None
    lo, hi = p["lower"], p["upper"]
    if p.get("field") != e["field"]:
        return f"field {p.get('field')!r} != {e['field']!r}"
    if hi is not None and lo > hi:
        return f"empty interval [{lo}, {hi}]"
    if p.get("exact") != (lo == hi):
        return "exact flag disagrees with the interval"
    if "value" in e:
        v = e["value"]
        if lo > v or (hi is not None and hi < v):
            return f"interval [{lo}, {hi}] misses the true value {v}"
        if e.get("exact") and not lo == hi == v:
            return f"interval [{lo}, {hi}] is not exactly {v}"
    if "range" in e:
        a, b = e["range"]
        if (b is not None and lo > b) or (hi is not None and hi < a):
            return f"interval [{lo}, {hi}] misses the known range {e['range']}"
    if "rule" in e and not any(t.startswith(e["rule"] + ":") for t in p["trace"]):
        return f"trace does not use {e['rule']}"
    return None


# ---------------------------------------------------------------------------
# invariants


def _structure(p, e):
    for key, value in e.items():
        got = p.get(key)
        if key == "feet":
            got = sorted(got or [])
        if got != value:
            return f"{key} {got} != {value}"
    if p.get("field") != "Q" or p.get("semi_faithful") is not True:
        return "field or semi-faithfulness wrong over Q"
    return None


# ---------------------------------------------------------------------------
# multihomogenization


def parse_poly(text, names):
    """Polynomial text (+, -, *, ^, integers, a/b) as {exponents: Fraction}."""
    index = {n: i for i, n in enumerate(names)}
    nv = len(names)

    def const(c):
        return {(0,) * nv: Fraction(c)} if c else {}

    def add(a, b, sign=1):
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + sign * c
            if not out[m]:
                del out[m]
        return out

    def mul(a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
                if not out[m]:
                    del out[m]
        return out

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return const(node.value)
        if isinstance(node, ast.Name):
            return {tuple(int(i == index[node.id]) for i in range(nv)): Fraction(1)}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return add({}, ev(node.operand), -1)
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return add(left, right)
            if isinstance(node.op, ast.Sub):
                return add(left, right, -1)
            if isinstance(node.op, ast.Mult):
                return mul(left, right)
            if isinstance(node.op, ast.Div):
                (m, c), = right.items()
                return {k: v / c for k, v in left.items()}
            if isinstance(node.op, ast.Pow):
                out = const(1)
                for _ in range(node.right.value):
                    out = mul(out, left)
                return out
        raise ValueError(f"unexpected syntax in {text!r}")

    return ev(ast.parse(text.replace("^", "**"), mode="eval"))


def _as_poly(pairs):
    return {tuple(m): Fraction(c) for m, c in pairs}


def _mhom(p, e):
    names = e["names"]
    if len(p["H"]) != len(e["H"]):
        return "wrong number of output coordinates"
    for t, (text, want) in enumerate(zip(p["H"], e["H"])):
        if parse_poly(text, names) != _as_poly(want):
            return f"H[{t}] = {text!r} is not the leading part"
    if parse_poly(p["denominator"], names) != _as_poly(e["denominator"]):
        return f"denominator {p['denominator']!r} is not the leading part"
    for key in ("M", "zero_columns", "rank"):
        if p[key] != e[key]:
            return f"{key} {p[key]} != {e[key]}"
    return None
