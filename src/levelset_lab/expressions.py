"""Closed-form scalar expressions over planar points.

Grammar, precedence low to high: ``+ -``  <  ``* /``  <  unary ``-``  <  ``^``
(right-associative).  Variables are ``x`` and ``y`` plus the polar aliases
``r`` = sqrt(x^2+y^2) and ``theta`` = atan2(y, x); constants ``pi`` and ``e``;
functions sin, cos, tan, exp, log, sqrt, abs.

Expression trees are immutable tuples, evaluation is a pure function and
accepts numpy arrays, so the same tree evaluated twice at the same point is
bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ExpressionDomainError, ExpressionSyntaxError, UnknownIdentifierError

VARIABLES = ("x", "y", "r", "theta")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")

# 'sign' is produced by differentiation of abs() and understood by the
# evaluator, but it is not part of the public grammar.
_EVAL_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "abs": np.abs,
    "sign": np.sign,
}

# Node shapes:
#   ("num", value)
#   ("var", name)
#   ("neg", child)
#   ("bin", op, left, right)        op in "+-*/^"
#   ("call", fname, child)


def _byte_offset(src: str, pos: int) -> int:
    return len(src[:pos].encode("utf-8"))


def _tokenize(src: str) -> list:
    """The (kind, value, position) tokens of `src`, closed by an "end" token."""
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            # optional exponent
            if j < n and src[j] in "eE" and j + 1 < n and (
                src[j + 1].isdigit() or (src[j + 1] in "+-" and j + 2 < n and src[j + 2].isdigit())
            ):
                j += 2
                while j < n and src[j].isdigit():
                    j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExpressionSyntaxError(f"bad number {text!r}", _byte_offset(src, i))
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", _byte_offset(src, i))
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive-descent parser for the precedence grammar above."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}" if tok[0] != "end" else f"expected {kind!r}, found end of input",
                _byte_offset(self.src, tok[2]),
            )
        return self.advance()

    def parse(self):
        tree = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected trailing token {tok[1]!r}", _byte_offset(self.src, tok[2]))
        return tree

    def sum(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in "*/":
            op = self.advance()[0]
            node = ("bin", op, node, self.factor())
        return node

    def factor(self):
        # unary minus binds below '^': -x^2 == -(x^2)
        if self.peek()[0] == "-":
            self.advance()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            # exponent may itself carry a unary minus: 2^-3
            return ("bin", "^", base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return ("num", tok[1])
        if tok[0] == "(":
            self.advance()
            node = self.sum()
            self.expect(")")
            return node
        if tok[0] == "name":
            self.advance()
            name = tok[1]
            if self.peek()[0] == "(":
                if name not in FUNCTIONS:
                    raise UnknownIdentifierError(name, _byte_offset(self.src, tok[2]))
                self.advance()
                arg = self.sum()
                self.expect(")")
                return ("call", name, arg)
            if name in VARIABLES:
                return ("var", name)
            if name in CONSTANTS:
                return ("num", CONSTANTS[name])
            raise UnknownIdentifierError(name, _byte_offset(self.src, tok[2]))
        if tok[0] == "end":
            raise ExpressionSyntaxError("unexpected end of input", _byte_offset(self.src, tok[2]))
        raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", _byte_offset(self.src, tok[2]))


def parse_expression(src: str):
    """Parse UTF-8 text into an expression tree."""
    if not isinstance(src, str):
        raise ExpressionSyntaxError("expression source must be text", 0)
    return _Parser(src).parse()


def free_variables(expr) -> set:
    kind = expr[0]
    if kind == "num":
        return set()
    if kind == "var":
        return {expr[1]}
    if kind == "neg":
        return free_variables(expr[1])
    if kind == "call":
        return free_variables(expr[2])
    return free_variables(expr[2]) | free_variables(expr[3])


def is_constant(expr) -> bool:
    return not free_variables(expr)


def _check_domain(name: str, arg, strict_zero: bool):
    arr = np.asarray(arg)
    bad = arr <= 0 if strict_zero else arr < 0
    if np.any(bad):
        worst = float(np.min(arr))
        raise ExpressionDomainError(name, worst)


def evaluate_env(expr, env: dict):
    """Evaluate a tree against an environment of variable arrays/scalars."""
    kind = expr[0]
    if kind == "num":
        return expr[1]
    if kind == "var":
        name = expr[1]
        if name not in env:
            raise UnknownIdentifierError(name, 0)
        return env[name]
    if kind == "neg":
        return np.negative(evaluate_env(expr[1], env))
    if kind == "call":
        name = expr[1]
        arg = evaluate_env(expr[2], env)
        if name == "log":
            _check_domain("log", arg, strict_zero=True)
            return np.log(arg)
        if name == "sqrt":
            _check_domain("sqrt", arg, strict_zero=False)
            return np.sqrt(arg)
        return _EVAL_FUNCTIONS[name](arg)
    op = expr[1]
    a = evaluate_env(expr[2], env)
    b = evaluate_env(expr[3], env)
    if op == "+":
        return np.add(a, b)
    if op == "-":
        return np.subtract(a, b)
    if op == "*":
        return np.multiply(a, b)
    if op == "/":
        # IEEE semantics: division by zero yields inf, not an error
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(a, b)
    with np.errstate(invalid="ignore"):
        out = np.power(a, b, dtype=float)
    if np.any(np.isnan(out)) and not (np.any(np.isnan(np.asarray(a, dtype=float))) or np.any(np.isnan(np.asarray(b, dtype=float)))):
        raise ExpressionDomainError("^", float(np.min(np.asarray(a, dtype=float))))
    return out


def env_from_xy(x, y) -> dict:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return {"x": x, "y": y, "r": np.hypot(x, y), "theta": np.arctan2(y, x)}


def evaluate_xy(expr, x, y):
    """Vectorized evaluation at physical coordinates."""
    out = evaluate_env(expr, env_from_xy(x, y))
    return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast(np.asarray(x), np.asarray(y)).shape).copy()


def evaluate_theta(expr, theta):
    """Evaluate a curve expression that may only reference ``theta``."""
    theta = np.asarray(theta, dtype=float)
    out = evaluate_env(expr, {"theta": theta})
    return np.broadcast_to(np.asarray(out, dtype=float), theta.shape).copy()


_ZERO = ("num", 0.0)
_ONE = ("num", 1.0)


# Smart constructors for derivative trees: they fold the identities
# 0*x = 0, 1*x = x, x +- 0 = x, 0/x = 0, x^1 = x and -0 = 0, so a derivative
# carries no zero subtrees (exact for finite operands).
def _neg(a):
    if a == _ZERO:
        return _ZERO
    return ("num", -a[1]) if a[0] == "num" else ("neg", a)


def _add(a, b):
    return b if a == _ZERO else a if b == _ZERO else ("bin", "+", a, b)


def _sub(a, b):
    return _neg(b) if a == _ZERO else a if b == _ZERO else ("bin", "-", a, b)


def _mul(a, b):
    if a == _ZERO or b == _ZERO:
        return _ZERO
    return b if a == _ONE else a if b == _ONE else ("bin", "*", a, b)


def _div(a, b):
    return _ZERO if a == _ZERO else ("bin", "/", a, b)


def _pow(a, b):
    return a if b == _ONE else ("bin", "^", a, b)


def differentiate(expr, var: str = "theta"):
    """Symbolic derivative with respect to a single free variable, with the
    constant identities above folded away.

    Intended for boundary-curve expressions in ``theta``; the other
    variables are treated as independent of ``var``.
    """
    kind = expr[0]
    if kind == "num":
        return _ZERO
    if kind == "var":
        return _ONE if expr[1] == var else _ZERO
    if kind == "neg":
        return _neg(differentiate(expr[1], var))
    if kind == "call":
        name, arg = expr[1], expr[2]
        da = differentiate(arg, var)
        if name == "sin":
            outer = ("call", "cos", arg)
        elif name == "cos":
            outer = ("neg", ("call", "sin", arg))
        elif name == "tan":
            outer = ("bin", "/", _ONE, ("bin", "^", ("call", "cos", arg), ("num", 2.0)))
        elif name == "exp":
            outer = expr
        elif name == "log":
            outer = ("bin", "/", _ONE, arg)
        elif name == "sqrt":
            outer = ("bin", "/", ("num", 0.5), expr)
        elif name == "abs":
            outer = ("call", "sign", arg)
        elif name == "sign":
            outer = _ZERO
        else:  # pragma: no cover - grammar forbids others
            raise UnknownIdentifierError(name, 0)
        return _mul(outer, da)
    op, a, b = expr[1], expr[2], expr[3]
    da, db = differentiate(a, var), differentiate(b, var)
    if op == "+":
        return _add(da, db)
    if op == "-":
        return _sub(da, db)
    if op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if op == "/":
        return _div(_sub(_mul(da, b), _mul(a, db)), ("bin", "^", b, ("num", 2.0)))
    # power: general a^b with d/dv = a^b * (db*log a + b*da/a); constant
    # exponents take the standard short form to avoid spurious log domain.
    if is_constant(b):
        p = float(evaluate_env(b, {}))
        return _mul(_mul(("num", p), _pow(a, ("num", p - 1.0))), da)
    inner = _add(_mul(db, ("call", "log", a)), _div(_mul(b, da), a))
    return _mul(expr, inner)

