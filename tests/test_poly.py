"""Polynomials: ring operations against a Fraction reference, the int
coefficient model, golden renderings, parser rejections, and the parser
against Python's own, kept as the oracle."""

import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edimkit import poly
from edimkit.errors import ParseError
from edimkit.poly import Polynomial, parse_polynomial
from oracles import ast_parse_polynomial

NV = 2
NAMES = ["x", "y"]

# ---------------------------------------------------------------------------
# a Fraction-coefficient reference: dict exponent-tuple -> nonzero Fraction


def ref_clean(terms):
    return {m: Fraction(c) for m, c in terms.items() if c != 0}


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(a, k, nv):
    out = {(0,) * nv: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, images, nv):
    out = {}
    for m, c in a.items():
        term = {(0,) * nv: c}
        for img, e in zip(images, m):
            term = ref_mul(term, ref_pow(img, e, nv))
        out = ref_add(out, term)
    return out


def ref_partial(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            dm = tuple(e - (j == i) for j, e in enumerate(m))
            out[dm] = out.get(dm, Fraction(0)) + c * m[i]
    return ref_clean(out)


def ref_evaluate(a, point):
    total = Fraction(0)
    for m, c in a.items():
        v = c
        for x, e in zip(point, m):
            v *= Fraction(x) ** e
        total += v
    return total


monomials = st.tuples(*[st.integers(0, 3)] * NV)
int_terms = st.dictionaries(monomials, st.integers(-5, 5), max_size=4)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polynomial(terms, q=1):
    """The polynomial of int terms, scaled by q, and its reference."""
    p = Polynomial(NV, terms).scale(q)
    return p, ref_clean({m: Fraction(c) * q for m, c in terms.items()})


@settings(max_examples=150, deadline=None)
@given(int_terms, int_terms, rationals, st.sampled_from([1, Fraction(1, 2)]),
       st.integers(0, 4), st.lists(int_terms, min_size=NV, max_size=NV),
       st.integers(0, NV - 1), st.tuples(rationals, rationals))
def test_ring_operations_match_the_fraction_reference(
        ta, tb, q, qa, k, image_terms, i, point):
    p, rp = polynomial(ta, qa)
    r, rr = polynomial(tb)
    assert p.terms == rp
    assert (p + r).terms == ref_add(rp, rr)
    assert (p - r).terms == ref_add(rp, rr, -1)
    assert (-p).terms == ref_add({}, rp, -1)
    assert (p * r).terms == ref_mul(rp, rr)
    assert (p ** k).terms == ref_pow(rp, k, NV)
    one = (0,) * NV
    assert p.scale(q).terms == ref_mul(rp, {one: q})
    images = [Polynomial(NV, t) for t in image_terms]
    assert p.substitute(images).terms == ref_substitute(
        rp, [ref_clean(t) for t in image_terms], NV)
    assert p.partial(i).terms == ref_partial(rp, i)
    assert p.evaluate(point) == ref_evaluate(rp, point)
    # constants mix in on either side
    assert (p + 3).terms == ref_add(rp, {one: Fraction(3)})
    assert (3 - p).terms == ref_add({one: Fraction(3)}, rp, -1)
    assert (q * p).terms == ref_mul(rp, {one: q})


# ---------------------------------------------------------------------------
# the coefficient model


def _types(p):
    return {type(c) for c in p.terms.values()}


@settings(max_examples=60, deadline=None)
@given(int_terms, int_terms, st.integers(0, 3), st.integers(-3, 3))
def test_integer_input_keeps_int_coefficients(ta, tb, k, n):
    p, r = Polynomial(NV, ta), Polynomial(NV, tb)
    for out in (p + r, p - r, -p, p * r, p ** k, p.scale(n), p + n, n - p,
                p * n, p.substitute([r, p]), p.partial(0)):
        assert _types(out) <= {int}


def test_fractions_appear_only_after_division():
    text = "(x - 2*y)^3 + 4*x*y - 7"
    assert _types(parse_polynomial(text, NAMES)) == {int}
    assert _types(parse_polynomial(f"({text})/2", NAMES)) == {Fraction}
    # division makes a Fraction even where the value is integral
    assert _types(parse_polynomial("x/2*2", NAMES)) == {Fraction}
    assert _types(Polynomial.variable(NV, 0).scale(Fraction(1, 3))) == {Fraction}
    assert _types(Polynomial.constant(NV, Fraction(4, 2))) == {Fraction}
    assert _types(Polynomial.constant(NV, 5)) == {int}
    # a bool constant is stored as a number, never as True
    assert Polynomial.constant(NV, True).render(NAMES) == "1"


# renderings recorded from the Fraction-coefficient implementation
GOLDEN = [
    ("x/2*2", "x"),
    ("-3/2*x^2 + 1/3", "-3/2*x^2 + 1/3"),
    ("(x - y)^3", "x^3 - 3*x^2*y + 3*x*y^2 - y^3"),
    ("x/3 - x/3", "0"),
    ("-x", "-x"),
    ("-1", "-1"),
    ("0", "0"),
    ("2*x*y^2 - 7/4*y + 0", "2*x*y^2 - 7/4*y"),
    ("(x/2 + y/3)^2", "1/4*x^2 + 1/3*x*y + 1/9*y^2"),
    ("6/3*x", "2*x"),
    ("-(x + 1)^2", "-x^2 - 2*x - 1"),
    ("x*0", "0"),
    ("(1/2)^3*x", "1/8*x"),
    ("x^0", "1"),
    ("0^0", "1"),
    ("-4/2*y + x/-2", "-1/2*x - 2*y"),
    ("(x + y)/(2/3)", "3/2*x + 3/2*y"),
    ("12345678901234567890*x - 1/12345678901234567890",
     "12345678901234567890*x - 1/12345678901234567890"),
]


@pytest.mark.parametrize("text, rendered", GOLDEN)
def test_render_is_golden(text, rendered):
    assert parse_polynomial(text, NAMES).render(NAMES) == rendered


# ---------------------------------------------------------------------------
# parser rejections


@pytest.mark.parametrize("text, literal", [
    ("True", "True"), ("False + x", "False"), ("x**True", "True"),
    ("x^False", "False"),
])
def test_bool_literals_are_rejected(text, literal):
    # bool is a subclass of int; it used to parse as 1 or 0
    with pytest.raises(ParseError, match=f"unsupported literal {literal}"):
        parse_polynomial(text, NAMES)


@pytest.mark.parametrize("text, message", [
    ("1.5*x", "unsupported literal 1.5"),
    ("x/y", "division only by nonzero constants"),
    ("x/(x - x)", "division only by nonzero constants"),
    ("x/0", "division only by nonzero constants"),
    ("x^-1", "exponent must be a nonnegative integer"),
    ("x^1.5", "exponent must be a nonnegative integer"),
    ("x^y", "exponent must be a nonnegative integer"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError, match=message):
        parse_polynomial(text, NAMES)


@pytest.mark.parametrize("text, message, position", [
    ("x + y/(x - x)", "division only by nonzero constants", 4),
    ("y^2 + x/y", "division only by nonzero constants", 6),
    ("x + y^True", "unsupported literal True", 4),
    ("x + y**-1", "exponent must be a nonnegative integer", 4),
    ("x + x % 2", "unsupported operator Mod", 4),
    ("x*y + w", "unknown variable 'w'", 6),
    ("(x +\n 1.5)", "unsupported literal 1.5", 6),
    ("x - ~y", "unsupported unary operator", 4),
    ("x + f(y)", "unsupported syntax Call", 4),
], ids=["division", "caret-shift", "bool-exponent", "exponent", "operator",
        "variable", "literal-second-line", "unary", "syntax"])
def test_walk_errors_report_the_offending_subexpression(text, message, position):
    # offsets are characters of the input: ^ counts once, though it is
    # parsed as **, and a newline counts once
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, NAMES)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


def test_walk_error_offsets_count_characters_not_bytes():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("é + é/(x - x)", ["é", "x"])
    assert exc.value.position == 4


@pytest.mark.parametrize("text, message, position", [
    ("x^2^2 + )", "unmatched ')'", 8),
    (") + x", "unmatched ')'", 0),
    ("x +", "invalid syntax", 3),
    ("é + )", "unmatched ')'", 4),
], ids=["caret-shift", "start", "end-of-input", "non-ascii"])
def test_syntax_errors_report_input_offsets(text, message, position):
    # the same 0-based input offsets as the walk's errors, and the length of
    # the input for an error at its end
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, ["x", "é"])
    assert exc.value.position == position
    assert str(exc.value) == \
        f"bad polynomial expression: {message} (at position {position})"


def test_errors_without_an_offset_carry_no_position():
    with pytest.raises(ParseError) as exc:
        Polynomial.variable(NV, 0) ** -1
    assert exc.value.position is None
    assert str(exc.value) == "negative polynomial power"


# ---------------------------------------------------------------------------
# the grammar against Python's, which the `ast` oracle reads

PIECES = [*"0123456789", "x", "y", "+", "-", "*", "/", "^", "**", "(", ")",
          " ", "\n", ".", "%", "~", "True", "0x", "_", "#"]
# what only Python's grammar reads: comments, and hex, octal or binary
# literals and `_` digit separators, each a digit run into a name character
PYTHON_ONLY = re.compile(r"#|[0-9][^\W\d]")


def _expression(rng, depth=0):
    r = rng.random()
    if depth > 3 or r < 0.3:
        return rng.choice(["x", "y", str(rng.randint(0, 12))])
    if r < 0.45:
        return rng.choice(["-", "+", ""]) + _expression(rng, depth + 1)
    if r < 0.6:
        return "(" + _expression(rng, depth + 1) + ")"
    if r < 0.75:
        return _expression(rng, depth + 1) + rng.choice(["^", "**"]) + \
            rng.choice(["0", "1", "2", "3", "(2)"])
    return _expression(rng, depth + 1) + rng.choice([" + ", "-", "*", " / ", "/"]) + \
        _expression(rng, depth + 1)


def _mutated(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = i + (rng.random() < 0.6)
        text = text[:i] + (rng.choice(PIECES) if rng.random() < 0.7 else "") + text[j:]
    return text


def _outcome(parse, text):
    """The rendering of the parsed text, or None if it is rejected."""
    try:
        p = parse(text, NAMES)
    except ParseError:
        return None
    return p.render(NAMES)


def test_parser_agrees_with_the_ast_oracle():
    rng = random.Random(19)
    verdicts = {True: 0, False: 0}
    for n in range(9000):
        if n % 3 == 0:
            text = "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 12)))
        else:
            text = _expression(rng)
            if n % 3 == 2:
                text = _mutated(rng, text)
        new = _outcome(parse_polynomial, text)
        old = _outcome(ast_parse_polynomial, text)
        if new is None and old is not None:
            assert PYTHON_ONLY.search(text), text
        elif new is not None and old is None:
            # blanks separate tokens anywhere; Python rejects an indented
            # first line and line breaks outside parentheses
            assert "\n" in text or text.startswith(" "), text
            flat = text.replace("\n", " ").lstrip(" ")
            assert new == _outcome(ast_parse_polynomial, flat), text
        else:
            assert new == old, text
        verdicts[new is not None] += 1
    assert min(verdicts.values()) > 2000, verdicts


@pytest.mark.parametrize("text", [
    "0x10*x", "0o7*x", "0b11*x", "1_000*x", "x #c", "x + \\\n1"])
def test_python_only_literals_and_comments_are_rejected(text):
    ast_parse_polynomial(text, NAMES)       # Python's grammar reads it
    with pytest.raises(ParseError, match="invalid syntax"):
        parse_polynomial(text, NAMES)


@pytest.mark.parametrize("text, rendered", [
    (" x", "x"), ("x\n+ 1", "x + 1"), ("\tx*\r\ny", "x*y")])
def test_blanks_separate_tokens_anywhere(text, rendered):
    with pytest.raises(ParseError):
        ast_parse_polynomial(text, NAMES)
    assert parse_polynomial(text, NAMES).render(NAMES) == rendered


def test_a_late_syntax_error_costs_no_arithmetic(monkeypatch):
    # the ast walk saw the whole text before any arithmetic; so does a dry
    # parse here, before the first power or product of parsed factors
    calls = []
    for name in ("_pow_terms", "_mul_terms"):
        monkeypatch.setattr(poly, name, lambda *args: calls.append(args))
    with pytest.raises(ParseError, match="unmatched"):
        parse_polynomial("(x + y + 1)^40*(x - y)^40 + )", NAMES)
    assert calls == []


def test_a_late_syntax_error_costs_no_constant_power():
    # 7^10000000 alone takes seconds; the syntax error is found first
    start = time.perf_counter()
    with pytest.raises(ParseError, match="unmatched"):
        parse_polynomial("2*7^10000000*x + )", NAMES)
    assert time.perf_counter() - start < 0.5


def test_long_sums_and_deep_nesting():
    # the ast walk recursed once per term, and ran out of stack near 1000
    text = " + ".join(f"{k}*x^{k}" for k in range(3000))
    assert parse_polynomial(text, NAMES).terms == {(k, 0): k for k in range(1, 3000)}
    with pytest.raises(ParseError, match="too deeply nested"):
        parse_polynomial("(" * 5000 + "x" + ")" * 5000, NAMES)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit here")
def test_an_integer_beyond_the_digit_limit_is_read_exactly():
    # zeros on both sides of every cut: a lost leading zero changes the text
    limit = sys.get_int_max_str_digits()
    digits = "1" + "0" * limit + "7"
    value = 10 ** (limit + 1) + 7
    p = parse_polynomial(f"x + {digits}", NAMES)
    assert p.terms == {(1, 0): 1, (0, 0): value}
    assert p.render(NAMES) == f"x + {digits}"
    p = parse_polynomial(f"-{digits}*y^2/3", NAMES)
    assert p.terms == {(0, 2): Fraction(-value, 3)}
    assert p.render(NAMES) == f"-{digits}/3*y^2"
    assert parse_polynomial(f"{digits}^2", NAMES).render(NAMES) == \
        "1" + "0" * (limit - 1) + "14" + "0" * (limit - 1) + "49"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit here")
@pytest.mark.parametrize("text", ["x^{}", "2*x*y^{}", "(x + 1)^{}", "7^{}*x"])
def test_an_exponent_beyond_the_digit_limit_is_a_parse_error(text):
    # only coefficients are read past the limit; no such power is computable
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError, match=f"an exponent of more than {limit} digits"):
        parse_polynomial(text.format("1" * (limit + 1)), NAMES)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit here")
def test_long_integers_round_trip_through_text():
    rng = random.Random(7)
    limit = sys.get_int_max_str_digits()
    for digits in (limit, limit + 1, 2 * limit + 3, 9 * limit):
        for n in (10 ** digits, 10 ** digits - 1, rng.randrange(10 ** digits),
                  10 ** digits + rng.randrange(10 ** (digits // 2))):
            text = poly._decimal(n)
            assert text[0] != "0" or n == 0
            assert poly._integer(text) == n
            assert poly._decimal(-n) == "-" + text
