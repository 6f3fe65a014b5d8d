"""One-variable expression parser and third-order jet evaluation.

Grammar: standard infix with precedence ^ > unary- > *,/ > +,- and
parentheses; functions exp, ln, sin, cos, tanh, sqrt; the constant pi; one
free variable fixed at parse time.  A numeric literal must be finite (1e400
is a syntax error at its position).  Exponents of ^ must be constant.

Evaluation propagates truncated Taylor jets, so first through third
derivatives come out exact to rounding -- no finite differencing.  There is
no syntax tree: each production of the parser builds its node's jet closure
and canonical text at once, and a subtree without the variable is evaluated
then and folded to its value.  The text is what str() returns and what a
DomainError quotes, and Expressions compare by it.  The closures are the
only evaluator: the parser evaluates each constant exponent with them, and
eval_jet3 calls them.  A function of a jet with no derivative terms (a
constant) takes only its value, so derivative terms it never uses cannot
overflow.  A node that leaves its domain, overflows or makes a math function
raise ValueError raises DomainError naming that node.  A constant subtree
that fails so is not folded, and fails at each evaluation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import DomainError, ExpressionSyntaxError, UnknownIdentifier

__all__ = ["Expression", "Jet3", "parse", "eval_jet3"]


@dataclass(frozen=True)
class Expression:
    """Parsed expression in a single named variable: its canonical text and
    its compiled form."""

    text: str
    variable: str
    # the compiled form: the variable's Taylor coefficients -> the expression's
    taylor: Callable[[tuple], tuple] = field(repr=False, compare=False)

    def __str__(self) -> str:
        return self.text


# --- tokenizer / parser -------------------------------------------------

# whitespace matches no group, so finditer skips it; any other character a
# token does not start with is "bad"
_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, token, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {token!r}", pos)
        if kind == "num" and not math.isfinite(float(token)):
            raise ExpressionSyntaxError(f"numeric literal {token!r} is not finite", pos)
        tokens.append((kind, token, pos))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variable: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.variable = variable
        self.variable_count = 0  # occurrences of the variable parsed so far

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExpressionSyntaxError(f"expected '{op}'", pos)
        return self.next()

    def parse(self) -> _Node:
        node = self.binary()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ExpressionSyntaxError(f"unexpected trailing input {text!r}", pos)
        return node

    def binary(self, min_prec: int = 1) -> _Node:
        """Precedence climbing over _BINARY; every binary operator is
        left-associative."""
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            prec = _BINARY[text][0] if kind == "op" and text in _BINARY else 0
            if prec < min_prec:
                return node
            self.next()
            node = _binary(text, node, self.binary(prec + 1))

    def factor(self) -> _Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return _neg(self.factor())
        if kind == "op" and text == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self) -> _Node:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind != "op" or text != "^":
            return base
        self.next()
        seen = self.variable_count
        exponent = self.factor()
        if self.variable_count != seen:
            raise ExpressionSyntaxError("exponent must be a constant", pos)
        # the exponent has no variable, so the point it is evaluated at is moot
        return _pow(base, exponent.taylor(_ONE)[0])

    def atom(self) -> _Node:
        kind, text, pos = self.next()
        if kind == "num":
            return _const(float(text))
        if kind == "op" and text == "(":
            node = self.binary()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text == self.variable:
                self.variable_count += 1
                return _Node(_identity, text, 5, False)
            if text == "pi":
                return _const(math.pi)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.binary()
                self.expect_op(")")
                return _call(text, arg)
            raise UnknownIdentifier(text, pos)
        raise ExpressionSyntaxError(
            "unexpected end of input" if kind == "eof" else f"unexpected {text!r}", pos
        )


def parse(text: str, variable: str) -> Expression:
    """Parse `text` as an expression in the single variable `variable`."""
    if not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    try:
        node = _Parser(text, variable).parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", 0) from None
    return Expression(node.text, variable, node.taylor)


# --- jets ---------------------------------------------------------------


class Jet3(NamedTuple):
    """Value and first three derivatives at a point."""

    f: float
    d1: float
    d2: float
    d3: float


# Internal representation: Taylor coefficients (c0, c1, c2, c3),
# c_k = f^(k)/k!, which keeps products and compositions short.
_TC = tuple[float, float, float, float]
_ONE = (1.0, 0.0, 0.0, 0.0)


class _Undefined(Exception):
    """A jet rule left its domain; the node's closure re-raises it as a
    DomainError that names the node."""


# ValueError: math.sin(inf), round(nan), ...; ArithmeticError: float overflow,
# or a derivative's 1/x^k overflowing
_FAILURES = (_Undefined, ValueError, ArithmeticError)


def _add(a: _TC, b: _TC) -> _TC:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 + b0, a1 + b1, a2 + b2, a3 + b3)


def _sub(a: _TC, b: _TC) -> _TC:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 - b0, a1 - b1, a2 - b2, a3 - b3)


def _mul(a: _TC, b: _TC) -> _TC:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0,
        a0 * b1 + a1 * b0,
        a0 * b2 + a1 * b1 + a2 * b0,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
    )


def _div(a: _TC, b: _TC) -> _TC:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if b0 == 0.0:
        raise _Undefined("division by zero")
    d0 = a0 / b0
    d1 = (a1 - d0 * b1) / b0
    d2 = (a2 - d0 * b2 - d1 * b1) / b0
    d3 = (a3 - d0 * b3 - d1 * b2 - d2 * b1) / b0
    return (d0, d1, d2, d3)


# symbol -> (precedence, jet rule); the parser and _binary read their binary
# operators from here.
_BINARY = {"+": (1, _add), "-": (1, _sub), "*": (2, _mul), "/": (2, _div)}


def _compose(f0: float, f1: float, f2: float, f3: float, u: _TC) -> _TC:
    """Taylor coefficients of F(u) from F and its derivatives at u's value.

    The truncated series f0 + f1*p + f2/2*p^2 + f3/6*p^3 in p = u - u[0],
    with p^2 and p^3 written out.  Each coefficient sums only the terms that
    reach it, so F(u)' reads only f1 and F(u)'' only f1 and f2: an F''' that
    overflows leaves them finite.
    """
    _, u1, u2, u3 = u
    h2, h3 = f2 / 2.0, f3 / 6.0
    m = u1 * u2
    return (f0, f1 * u1, f1 * u2 + h2 * (u1 * u1), f1 * u3 + h2 * (m + m) + h3 * (u1 * u1 * u1))


def _rule(value, derivatives, undefined: str | None):
    """The jet rule of F(u) from F, its derivative rule and, for an F defined
    only at positive values, the message for the others."""

    def rule(u: _TC) -> _TC:
        x = u[0]
        if undefined and x <= 0.0:
            raise _Undefined(undefined)
        f0 = value(x)
        if u[1] == u[2] == u[3] == 0.0:
            # a constant: F(u) has no derivative terms, and F's own may overflow where f0 does not
            return (f0, 0.0, 0.0, 0.0)
        f1, f2, f3 = derivatives(x, f0)
        return _compose(f0, f1, f2, f3, u)

    return rule


def _power(p: float):
    """The jet rule of ^p, its integer or real branch chosen once."""
    if not math.isfinite(p):

        def undefined(b: _TC) -> _TC:
            # as the integer test does: ValueError for nan, OverflowError for +-inf
            return round(p)

        return undefined
    if p == round(p) and abs(p) <= 64:
        n = int(round(p))
        times = range(abs(n))

        def integer(b: _TC) -> _TC:
            out = _ONE
            for _ in times:
                out = _mul(out, b)
            return out if n >= 0 else _div(_ONE, out)

        return integer
    p1 = p * (p - 1.0)
    p2 = p1 * (p - 2.0)

    def derivatives(x: float, f0: float):
        return p * x ** (p - 1.0), p1 * x ** (p - 2.0), p2 * x ** (p - 3.0)

    return _rule(lambda x: x**p, derivatives, "non-integer power of non-positive base")


# derivative rules: F'(x), F''(x), F'''(x) from x and F(x)
def _exp(x: float, f0: float):
    return f0, f0, f0


def _ln(x: float, f0: float):
    return 1.0 / x, -1.0 / x**2, 2.0 / x**3


def _sin(x: float, f0: float):
    c = math.cos(x)
    return c, -f0, -c


def _cos(x: float, f0: float):
    s = math.sin(x)
    return -s, -f0, s


def _tanh(x: float, f0: float):
    # sech^2 from e^(-2|x|), not as 1 - tanh^2, which is 0 once tanh rounds to 1
    e = math.exp(-2.0 * abs(x))
    sech2 = 4.0 * e / ((1.0 + e) * (1.0 + e))
    return sech2, -2.0 * f0 * sech2, sech2 * (6.0 * f0 * f0 - 2.0)


def _sqrt(x: float, f0: float):
    return 0.5 / f0, -0.25 / (x * f0), 0.375 / (x * x * f0)


# name -> _rule's arguments: F, its derivative rule, and the message for a
# value outside F's domain (None where F takes every real)
FUNCTIONS = {
    "exp": (math.exp, _exp, None),
    "ln": (math.log, _ln, "ln of non-positive value"),
    "sin": (math.sin, _sin, None),
    "cos": (math.cos, _cos, None),
    "tanh": (math.tanh, _tanh, None),
    "sqrt": (math.sqrt, _sqrt, "sqrt of non-positive value"),
}


# --- nodes ---------------------------------------------------------------


class _Node(NamedTuple):
    """One parser production: its jet function, its canonical text, its
    precedence (a binary operator's from _BINARY, unary minus 3, ^ 4, a
    number, the variable or a call 5), and whether it was folded."""

    taylor: Callable[[_TC], _TC]
    text: str
    prec: int
    folded: bool


def _identity(at: _TC) -> _TC:
    return at


def _wrap(node: _Node, min_prec: int) -> str:
    return f"({node.text})" if node.prec < min_prec else node.text


def _node(f, text: str, prec: int, folded: bool) -> _Node:
    """The node of f, whose children are all folded if `folded`.  Such a node
    that evaluates is folded: its function returns the coefficients computed
    here.  One that fails stays unfolded, so it fails at each evaluation."""
    if folded:
        try:
            c = f(_ONE)  # nothing below reads the point
        except DomainError:
            folded = False
        else:
            f = lambda at: c
    return _Node(f, text, prec, folded)


def _const(value: float) -> _Node:
    c = (value, 0.0, 0.0, 0.0)
    return _Node(lambda at: c, repr(value), 5, True)


def _failure(exc: Exception, text: str) -> DomainError:
    """The DomainError for one of _FAILURES raised while evaluating the node
    whose text is `text`; a child's DomainError passes through its parents."""
    reason = "overflow" if isinstance(exc, ArithmeticError) else str(exc)
    return DomainError(f"{reason} in '{text}'")


def _binary(op: str, left: _Node, right: _Node) -> _Node:
    prec, rule = _BINARY[op]
    text = _wrap(left, prec) + (f" {op} " if prec == 1 else op) + _wrap(right, prec + 1)
    lf, rf = left.taylor, right.taylor

    def f(at):
        try:
            return rule(lf(at), rf(at))
        except _FAILURES as exc:
            raise _failure(exc, text) from None

    return _node(f, text, prec, left.folded and right.folded)


def _neg(arg: _Node) -> _Node:
    g = arg.taylor

    def f(at):
        a0, a1, a2, a3 = g(at)
        return (-a0, -a1, -a2, -a3)

    return _node(f, "-" + _wrap(arg, 3), 3, arg.folded)


def _unary(rule, arg: _Node, text: str, prec: int) -> _Node:
    g = arg.taylor

    def f(at):
        try:
            return rule(g(at))
        except _FAILURES as exc:
            raise _failure(exc, text) from None

    return _node(f, text, prec, arg.folded)


def _pow(base: _Node, exponent: float) -> _Node:
    return _unary(_power(exponent), base, f"{_wrap(base, 5)}^{exponent!r}", 4)


def _call(fn: str, arg: _Node) -> _Node:
    return _unary(_rule(*FUNCTIONS[fn]), arg, f"{fn}({arg.text})", 5)


# builds a Jet3 from a tuple without the Python-level __new__ of a NamedTuple
_make_jet = tuple.__new__


def eval_jet3(expression: Expression, v: float) -> Jet3:
    """Evaluate the expression and its first three derivatives at v."""
    try:
        c0, c1, c2, c3 = expression.taylor((v, 1.0, 0.0, 0.0))
    except RecursionError:  # a node's closure calls its children's
        raise DomainError("expression nested too deeply to evaluate") from None
    return _make_jet(Jet3, (c0, c1, 2.0 * c2, 6.0 * c3))
