"""Edge-law DSL: parsing, evaluation, symbolic differentiation, co-content.

A law is a scalar expression in the single variable ``y`` built from decimal
literals, ``+ - * /``, integer powers ``^``, unary minus, and the smooth
functions ``exp ln tanh sinh cosh sqrt``.  The grammar is closed under
differentiation, so the derivative of any law is again a law.  Co-content
(the anchored antiderivative with G(0) = 0) is computed numerically, never
symbolically: by Gauss-Legendre panels over [0, y], bisected where two
orders disagree, for a whole array of values y at once.

Grammar::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" integer)?
    atom   := number | "y" | func "(" expr ")" | "(" expr ")"
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvexityError, ExprSyntaxError, IntervalError

DEFAULT_INTERVAL = (-8.0, 8.0)
DEFAULT_CONVEXITY_SAMPLES = 4097
COCONTENT_RTOL = 1e-13  # panel-estimate tolerance, relative to 1 + |G(y)|
COCONTENT_DEPTH = 30  # most bisections of a panel

FUNCTIONS = {
    "exp": np.exp,
    "ln": np.log,
    "tanh": np.tanh,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """The single free variable ``y``."""


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Pow, Call]


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, offset = self.peek()
        if text != value:
            raise ExprSyntaxError(f"expected {value!r}, found {text or 'end of input'!r}", offset)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.power())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            sign = 1
            if self.peek()[1] == "-":
                self.advance()
                sign = -1
            kind, text, offset = self.peek()
            if kind != "number":
                raise ExprSyntaxError(f"exponent must be an integer literal, found {text!r}", offset)
            if not text.isdigit():
                raise ExprSyntaxError(f"non-integer exponent {text!r}", offset)
            self.advance()
            return Pow(base, sign * int(text))
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "number":
            return Num(float(text))
        if kind == "ident":
            if text == "y":
                return Var()
            if text in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", offset)


def parse_law(text: str) -> Expr:
    """Parse law text into an AST.

    Raises ExprSyntaxError (with character offset) on malformed input,
    unknown identifiers, or non-integer exponents.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(expr: Expr, y):
    """Evaluate ``expr`` at ``y`` (scalar or ndarray)."""
    with np.errstate(all="ignore"):
        return _eval(expr, y)


def _eval(expr: Expr, y):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return y
    if isinstance(expr, Neg):
        return -_eval(expr.arg, y)
    if isinstance(expr, BinOp):
        a = _eval(expr.left, y)
        b = _eval(expr.right, y)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return a / b
    if isinstance(expr, Pow):
        return _eval(expr.base, y) ** expr.exponent
    if isinstance(expr, Call):
        return FUNCTIONS[expr.func](_eval(expr.arg, y))
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Differentiation

# Smart constructors fold literal zeros and ones so repeated differentiation
# keeps trees small (and polynomial second derivatives collapse to 0 exactly).


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Num(0.0)
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(base: Expr, n: int) -> Expr:
    if n == 0:
        return Num(1.0)
    if n == 1:
        return base
    return Pow(base, n)


def differentiate(expr: Expr) -> Expr:
    """Symbolic derivative d/dy, staying inside the law grammar."""
    if isinstance(expr, Num):
        return Num(0.0)
    if isinstance(expr, Var):
        return Num(1.0)
    if isinstance(expr, Neg):
        return _neg(differentiate(expr.arg))
    if isinstance(expr, BinOp):
        da = differentiate(expr.left)
        db = differentiate(expr.right)
        if expr.op == "+":
            return _add(da, db)
        if expr.op == "-":
            return _sub(da, db)
        if expr.op == "*":
            return _add(_mul(da, expr.right), _mul(expr.left, db))
        return _div(
            _sub(_mul(da, expr.right), _mul(expr.left, db)),
            _pow(expr.right, 2),
        )
    if isinstance(expr, Pow):
        du = differentiate(expr.base)
        return _mul(_mul(Num(float(expr.exponent)), _pow(expr.base, expr.exponent - 1)), du)
    if isinstance(expr, Call):
        u = expr.arg
        du = differentiate(u)
        if expr.func == "exp":
            outer: Expr = Call("exp", u)
        elif expr.func == "ln":
            return _div(du, u)
        elif expr.func == "tanh":
            outer = _sub(Num(1.0), _pow(Call("tanh", u), 2))
        elif expr.func == "sinh":
            outer = Call("cosh", u)
        elif expr.func == "cosh":
            outer = Call("sinh", u)
        elif expr.func == "sqrt":
            return _div(du, _mul(Num(2.0), Call("sqrt", u)))
        else:  # pragma: no cover - grammar admits no other functions
            raise ValueError(f"unknown function {expr.func!r}")
        return _mul(outer, du)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PRECEDENCE[e.op]
    if isinstance(e, Neg):
        return 1
    if isinstance(e, Pow):
        return 3
    return 4


def to_text(expr: Expr) -> str:
    """Render an AST as law text; parsing the result recovers the AST."""
    if isinstance(expr, Num):
        if expr.value < 0:
            return f"-{-expr.value!r}"
        return repr(expr.value)
    if isinstance(expr, Var):
        return "y"
    if isinstance(expr, Neg):
        inner = to_text(expr.arg)
        if _prec(expr.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        lp = _prec(expr.left)
        rp = _prec(expr.right)
        mine = _PRECEDENCE[expr.op]
        left = to_text(expr.left)
        right = to_text(expr.right)
        if lp < mine:
            left = f"({left})"
        # parsing is left-associative, so right-nested chains need parens
        if rp <= mine:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    if isinstance(expr, Pow):
        base = to_text(expr.base)
        if _prec(expr.base) < 4:
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, Call):
        return f"{expr.func}({to_text(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Edge laws


@dataclass(frozen=True)
class EdgeLaw:
    """A strictly monotone conductance law with its symbolic derivative.

    ``g`` maps edge voltage to edge current; ``g_prime`` is its derivative,
    positive on the validity interval (certified by sampling, the margin is
    the sampled minimum).  ``kind`` records whether the source text gave the
    conductance itself or its co-content.
    """

    g: Expr
    g_prime: Expr
    kind: str
    validity_interval: tuple[float, float]
    convexity_margin: float
    source: str = ""

    def contains(self, y: float) -> bool:
        lo, hi = self.validity_interval
        return lo <= y <= hi

    def g_at(self, y):
        return evaluate(self.g, y)

    def gp_at(self, y):
        return evaluate(self.g_prime, y)

    def cocontent(self, y: np.ndarray) -> np.ndarray:
        """G at each edge value in ``y``; the values must lie in the validity interval."""
        return _integrate(self.g, y)


def scan_convexity(g_prime: Expr, interval: tuple[float, float]) -> tuple[float, float | None]:
    """Sample g' on a uniform grid of DEFAULT_CONVEXITY_SAMPLES points.

    Returns (min value, first violating y or None).
    """
    grid = np.linspace(interval[0], interval[1], DEFAULT_CONVEXITY_SAMPLES)
    values = np.broadcast_to(np.asarray(evaluate(g_prime, grid), dtype=float), grid.shape)
    bad = ~(np.isfinite(values) & (values > 0.0))
    if bad.any():
        idx = int(np.argmax(bad))
        return float(values[idx]), float(grid[idx])
    return float(values.min()), None


def edge_law(
    text: str,
    kind: str = "conductance",
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> EdgeLaw:
    """Build a certified EdgeLaw from law text.

    ``kind="conductance"`` treats the text as g itself; ``kind="cocontent"``
    differentiates once to get g.  The validity interval must be finite, with
    a finite width, and straddle 0 so the quadrature anchor G(0) = 0 is
    inside it.  g' is certified positive by ``scan_convexity``; a violation
    raises ConvexityError.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not np.isfinite(hi - lo):  # also when lo or hi is not finite
        raise ValueError(f"validity interval must be finite, with a finite width, got [{lo}, {hi}]")
    if not lo < 0.0 < hi:
        raise ValueError(f"validity interval must straddle 0, got [{lo}, {hi}]")
    parsed = parse_law(text)
    if kind == "conductance":
        g = parsed
    elif kind == "cocontent":
        g = differentiate(parsed)
    else:
        raise ValueError(f"unknown law kind {kind!r}")
    g_prime = differentiate(g)
    margin, violation = scan_convexity(g_prime, (lo, hi))
    if violation is not None:
        raise ConvexityError(violation, margin, text)
    return EdgeLaw(g, g_prime, kind, (lo, hi), margin, text)


def cocontent(law: EdgeLaw, y: float) -> float:
    """G(y) = integral of g from 0 to y, anchored so G(0) = 0.

    Raises IntervalError outside the law's validity interval.  The error is
    well below 1e-10 (1 + |G(y)|); see ``_integrate``.
    """
    if not law.contains(y):
        raise IntervalError(y, law.validity_interval)
    if y == 0.0:
        return 0.0
    return float(law.cocontent(np.array([float(y)]))[0])


def _gauss_panel_rule(low: int, high: int):
    """Nodes on [0, 1] of two Gauss-Legendre orders, and their weights as two rows."""
    x_lo, w_lo = leggauss(low)
    x_hi, w_hi = leggauss(high)
    nodes = 0.5 * (np.concatenate([x_lo, x_hi]) + 1.0)
    weights = np.zeros((2, low + high))
    weights[0, :low] = 0.5 * w_lo
    weights[1, low:] = 0.5 * w_hi
    return nodes, weights


_NODES, _WEIGHTS = _gauss_panel_rule(10, 20)
_NOISE = 64.0 * np.finfo(float).eps


def _integrate(g: Expr, y: np.ndarray) -> np.ndarray:
    """Integral of g from 0 to each entry of y, by bisected Gauss-Legendre panels.

    Every panel of [0, y] is integrated at orders 10 and 20 from one ``evaluate``
    call over all panels of all entries.  A panel is accepted with its order-20
    value once the two orders agree to COCONTENT_RTOL (1 + |first estimate|)
    times the panel's share of [0, y], or to rounding noise in the panel's sum,
    or when its values are not finite; the others are halved, at most
    COCONTENT_DEPTH times.  The order-10 gap overstates the order-20 error by
    orders of magnitude, so the result is far inside the tolerance.
    """
    total = np.zeros(len(y))
    owner = np.arange(len(y))
    start = np.zeros(len(y))
    share = np.ones(len(y))
    scale = None
    for depth in range(COCONTENT_DEPTH + 1):
        span = share * y[owner]
        points = y[owner, None] * (start[:, None] + share[:, None] * _NODES)
        values = np.broadcast_to(evaluate(g, points), points.shape)
        low, high = (values @ _WEIGHTS.T * span[:, None]).T
        if scale is None:
            scale = 1.0 + np.where(np.isfinite(high), np.abs(high), 0.0)
        noise = _NOISE * (np.abs(values) @ _WEIGHTS[1]) * np.abs(span)
        gap = np.abs(high - low)
        done = ~(gap > np.maximum(COCONTENT_RTOL * scale[owner] * share, noise))
        if depth == COCONTENT_DEPTH:
            done[:] = True
        np.add.at(total, owner[done], high[done])
        if done.all():
            break
        split = ~done
        owner = np.repeat(owner[split], 2)
        share = np.repeat(0.5 * share[split], 2)
        start = np.repeat(start[split], 2)
        start[1::2] += share[1::2]
    return total
