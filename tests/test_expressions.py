"""Expression grammar: parsing, evaluation, round trips, error paths."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelset_lab import expressions as ex
from levelset_lab.errors import (
    ExpressionDomainError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from levelset_lab.geometry import BoundaryCurve


def ev(src, x=0.0, y=0.0):
    return float(ex.evaluate_xy(ex.parse_expression(src), x, y))


def test_sin_three_theta():
    theta = math.pi / 6
    assert ev("sin(3*theta)", math.cos(theta), math.sin(theta)) == pytest.approx(1.0)


def test_log_radius_at_e():
    assert ev("log(sqrt(x^2+y^2))", math.e, 0.0) == pytest.approx(1.0)


def test_precedence_forced():
    assert ev("2+3*4^2") == 50.0


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_unary_minus_below_power():
    assert ev("-2^2") == -4.0
    assert ev("2^-1") == 0.5


def test_unbalanced_paren_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        ex.parse_expression("sin(")
    assert err.value.offset == 4


def test_trailing_garbage_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        ex.parse_expression("1 + 2 )")
    assert err.value.offset == 6


@pytest.mark.parametrize("src, message", [
    ("sin(x", "expected ')', found end of input (byte offset 5)"),
    ("(x y)", "expected ')', found 'y' (byte offset 3)"),
    (b"x", "expression source must be text (byte offset 0)"),
])
def test_syntax_error_names_what_was_expected(src, message):
    with pytest.raises(ExpressionSyntaxError, match=re.escape(message) + "$"):
        ex.parse_expression(src)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        ex.parse_expression("foo + 1")
    with pytest.raises(UnknownIdentifierError):
        ex.parse_expression("sinh(x)")
    # a curve of x, which validation's curve_variables check keeps out of scenario files
    with pytest.raises(UnknownIdentifierError):
        BoundaryCurve(ex.parse_expression("x"), "x").radius(np.array([0.0]))


@pytest.mark.parametrize("src, names", [
    ("2.5", set()),
    ("-(x + 1)", {"x"}),
    ("sin(-theta) * y", {"theta", "y"}),
    ("-(-2) ^ r", {"r"}),
    ("2.5E+0 * x", {"x"}),
])
def test_free_variables_through_every_node_kind(src, names):
    expr = ex.parse_expression(src)
    assert ex.free_variables(expr) == names
    assert ex.is_constant(expr) == (not names)


def test_xy_product():
    assert ev("x*y", 2.0, 3.0) == 6.0


def test_sqrt_negative_is_error():
    with pytest.raises(ExpressionDomainError):
        ev("sqrt(x)", -1.0, 0.0)
    with pytest.raises(ExpressionDomainError):
        ev("x^0.5", -1.0, 0.0)


def test_log_nonpositive_is_error():
    with pytest.raises(ExpressionDomainError):
        ev("log(x)", -2.0, 0.0)
    with pytest.raises(ExpressionDomainError):
        ev("log(x - x)", 1.0, 0.0)


def test_theta_alias():
    # 5 + cos(2*theta) at theta = pi/2 -> 4
    assert ev("5+cos(2*theta)", 0.0, 1.0) == pytest.approx(4.0)


def test_constants():
    assert ev("pi") == math.pi
    assert ev("e") == math.e


def test_vectorized_matches_scalar():
    tree = ex.parse_expression("sin(3*theta) + x^2 - y/2")
    xs = np.linspace(-2.0, 2.0, 17)
    ys = np.linspace(0.5, 3.0, 17)
    vec = ex.evaluate_xy(tree, xs, ys)
    for k in range(len(xs)):
        assert vec[k] == ex.evaluate_xy(tree, float(xs[k]), float(ys[k]))  # bit-identical


def test_deterministic_evaluation():
    tree = ex.parse_expression("exp(sin(x*y) - sqrt(abs(y))) / (2 + cos(theta))")
    a = ex.evaluate_xy(tree, 0.7, -1.3)
    b = ex.evaluate_xy(tree, 0.7, -1.3)
    assert a == b


# ---------------------------------------------------------------- round trip

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(expr) -> str:
    """Render a tree back to parseable text, for the print/parse round trip."""

    def render(node, parent_prec: int, rightmost: bool) -> str:
        kind = node[0]
        if kind == "num":
            v = node[1]
            text = repr(float(v))
            if v < 0:
                text = f"({text})"
            return text
        if kind == "var":
            return node[1]
        if kind == "call":
            return f"{node[1]}({render(node[2], 0, True)})"
        if kind == "neg":
            inner = render(node[1], _PRECEDENCE["neg"], True)
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        op = node[1]
        prec = _PRECEDENCE[op]
        left = render(node[2], prec if op != "^" else prec + 1, False)
        # -/ / are left-associative: parenthesize equal-precedence right children
        right = render(node[3], prec + (1 if op in "-/" else 0) if op != "^" else prec, True)
        text = f"{left} {op} {right}"
        return f"({text})" if prec < parent_prec or (prec == parent_prec and not rightmost) else text

    return render(expr, 0, True)


def _random_tree(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.4:
            return ("num", round(rng.uniform(-5.0, 5.0), 3))
        return ("var", rng.choice(ex.VARIABLES))
    roll = rng.random()
    if roll < 0.15:
        return ("neg", _random_tree(rng, depth - 1))
    if roll < 0.45:
        fn = rng.choice(["sin", "cos", "exp", "abs"])
        return ("call", fn, _random_tree(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    if op == "^":
        # keep powers tame and domain-safe
        left = ("call", "abs", left)
        right = ("num", float(rng.randint(0, 3)))
    return ("bin", op, left, right)


def test_print_parse_round_trip_thousand():
    rng = random.Random(20260811)
    pts = [(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(100)]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    checked = 0
    while checked < 1000:
        tree = _random_tree(rng, 4)
        text = to_string(tree)
        reparsed = ex.parse_expression(text)
        # random trees overflow exp and then subtract inf from inf; only the
        # finite values are compared
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                v1 = ex.evaluate_xy(tree, xs, ys)
            except ExpressionDomainError:
                continue  # division-free domain errors: skip this sample
            v2 = ex.evaluate_xy(reparsed, xs, ys)
            finite = np.isfinite(v1)
            scale = np.maximum(np.abs(v1), 1.0)
            assert np.all(np.abs(v1 - v2)[finite] <= 1e-12 * scale[finite]), text
        checked += 1


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_totality(src):
    """Arbitrary text either parses or raises a structured expression error."""
    try:
        ex.parse_expression(src)
    except (ExpressionSyntaxError, UnknownIdentifierError):
        pass


# ------------------------------------------------------------ differentiation

@pytest.mark.parametrize("src,dsrc_at", [
    ("sin(3*theta)", lambda t: 3.0 * math.cos(3.0 * t)),
    ("2 + sin(3*theta)^2", lambda t: 6.0 * math.sin(3.0 * t) * math.cos(3.0 * t)),
    ("exp(cos(theta))", lambda t: -math.sin(t) * math.exp(math.cos(t))),
    ("1/(2 + cos(theta))", lambda t: math.sin(t) / (2.0 + math.cos(t)) ** 2),
    ("sqrt(4 + sin(theta))", lambda t: 0.5 * math.cos(t) / math.sqrt(4.0 + math.sin(t))),
    ("tan(theta)", lambda t: 1.0 / math.cos(t) ** 2),
    ("log(2 + cos(theta))", lambda t: -math.sin(t) / (2.0 + math.cos(t))),
    ("abs(cos(theta))", lambda t: -math.sin(t) * math.copysign(1.0, math.cos(t))),
])
def test_differentiate_theta(src, dsrc_at):
    d = ex.differentiate(ex.parse_expression(src), "theta")
    for t in (0.3, 1.1, 2.9, 4.2):
        got = float(ex.evaluate_env(d, {"theta": np.asarray(t)}))
        assert got == pytest.approx(dsrc_at(t), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("src", [
    "2 + 0.1*abs(sin(theta))",
    "2 + 0.1*(1.5 + cos(theta))^(1 + 0.5*sin(theta))",
])
def test_curve_derivatives_match_central_differences(src):
    """The sign rule (the second derivative of abs) and a variable exponent,
    away from the kinks of abs(sin(theta)) at 0 and pi."""
    curve = BoundaryCurve(ex.parse_expression(src), src)
    t, h = np.array([0.3, 1.1, 2.6, 4.2]), 1e-4
    r_minus, r_mid, r_plus = (curve.radius(t + d) for d in (-h, 0.0, h))
    assert np.allclose(curve.radius_d1(t), (r_plus - r_minus) / (2 * h), rtol=0, atol=1e-8)
    assert np.allclose(curve.radius_d2(t), (r_plus - 2 * r_mid + r_minus) / h ** 2, rtol=0, atol=1e-6)


def differentiate_unfolded(expr, var="theta"):
    """Reference: the derivative rules without constant folding, as
    `ex.differentiate` built them before it folded zero and unit factors."""
    kind = expr[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0) if expr[1] == var else ("num", 0.0)
    if kind == "neg":
        return ("neg", differentiate_unfolded(expr[1], var))
    if kind == "call":
        name, arg = expr[1], expr[2]
        outer = {
            "sin": ("call", "cos", arg),
            "cos": ("neg", ("call", "sin", arg)),
            "tan": ("bin", "/", ("num", 1.0), ("bin", "^", ("call", "cos", arg), ("num", 2.0))),
            "exp": expr,
            "log": ("bin", "/", ("num", 1.0), arg),
            "sqrt": ("bin", "/", ("num", 0.5), expr),
            "abs": ("call", "sign", arg),
            "sign": ("num", 0.0),
        }[name]
        return ("bin", "*", outer, differentiate_unfolded(arg, var))
    op, a, b = expr[1], expr[2], expr[3]
    da, db = differentiate_unfolded(a, var), differentiate_unfolded(b, var)
    if op in "+-":
        return ("bin", op, da, db)
    if op == "*":
        return ("bin", "+", ("bin", "*", da, b), ("bin", "*", a, db))
    if op == "/":
        num = ("bin", "-", ("bin", "*", da, b), ("bin", "*", a, db))
        return ("bin", "/", num, ("bin", "^", b, ("num", 2.0)))
    if ex.is_constant(b):
        p = float(ex.evaluate_env(b, {}))
        return ("bin", "*", ("bin", "*", ("num", p), ("bin", "^", a, ("num", p - 1.0))), da)
    inner = ("bin", "+", ("bin", "*", db, ("call", "log", a)), ("bin", "/", ("bin", "*", b, da), a))
    return ("bin", "*", expr, inner)


def tree_size(expr) -> int:
    return 1 + sum(tree_size(child) for child in expr[1:] if isinstance(child, tuple))


def _subtrees(expr):
    yield expr
    for child in expr[1:]:
        if isinstance(child, tuple):
            yield from _subtrees(child)


# Boundary radii of the seed-0 symmetric annuli (k-fold, k = 2, 3, 4) that the
# perfbench symmetric_annuli generator draws: inner and outer of sym0..sym7.
SYMMETRIC_SEED0_RADII = (
    "1.1378*(1 + 0.1258*cos(2*theta))", "2.9365*(1 + 0.0304*cos(4*theta))",
    "0.9213*(1 + 0.0977*cos(3*theta))", "3.0667*(1 + 0.0563*cos(6*theta))",
    "1.0473*(1 + 0.0751*cos(4*theta))", "3.3278*(1 + 0.0593*cos(8*theta))",
    "1.0919*(1 + 0.1399*cos(2*theta))", "3.1472*(1 + 0.0389*cos(4*theta))",
    "1.1652*(1 + 0.1467*cos(3*theta))", "2.9816*(1 + 0.0546*cos(6*theta))",
    "0.8056*(1 + 0.1220*cos(4*theta))", "2.9191*(1 + 0.0530*cos(8*theta))",
    "1.1470*(1 + 0.0744*cos(2*theta))", "2.8602*(1 + 0.0548*cos(4*theta))",
    "1.1870*(1 + 0.1303*cos(3*theta))", "2.9584*(1 + 0.0232*cos(6*theta))",
)


def _builtin_radii():
    from conftest import BUILTIN_NAMES, builtin_spec
    out = []
    for name in BUILTIN_NAMES:
        dom = builtin_spec(name).domain
        out += [c.source for c in (dom.exterior, dom.interior) if c is not None]
    return out


def test_folded_derivatives_match_unfolded():
    """Folding constants changes the derivative trees, not their values."""
    theta = np.linspace(0.0, 2.0 * math.pi, 1001)
    for src in (*_builtin_radii(), *SYMMETRIC_SEED0_RADII):
        tree = ex.parse_expression(src)
        folded, unfolded = tree, tree
        for _ in range(2):
            folded = ex.differentiate(folded, "theta")
            unfolded = differentiate_unfolded(unfolded, "theta")
            want = ex.evaluate_theta(unfolded, theta)
            got = ex.evaluate_theta(folded, theta)
            scale = max(float(np.max(np.abs(want))), 1e-300)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, src
            assert tree_size(folded) <= tree_size(unfolded), src


def test_folded_second_derivative_is_smaller():
    """The radii of sym0_k2 carry no zero subtrees in their folded d2."""
    from levelset_lab.geometry import BoundaryCurve
    for src in SYMMETRIC_SEED0_RADII[:2]:
        curve = BoundaryCurve(ex.parse_expression(src), src)
        unfolded = differentiate_unfolded(differentiate_unfolded(curve.radius_expr))
        assert tree_size(curve._d2) < tree_size(unfolded)
        assert ("num", 0.0) not in _subtrees(curve._d2)


def test_folding_identities():
    zero, one = ("num", 0.0), ("num", 1.0)
    assert ex.differentiate(ex.parse_expression("3*theta")) == ("num", 3.0)
    assert ex.differentiate(ex.parse_expression("theta - 2")) == one
    assert ex.differentiate(ex.parse_expression("-(x + 2)")) == zero
    assert ex.differentiate(ex.parse_expression("x / (1 + x)")) == zero
    assert ex.differentiate(ex.parse_expression("theta^2")) == ("bin", "*", ("num", 2.0), ("var", "theta"))
    assert ex.differentiate(("var", "x"), "x") == one
