"""One-variable expression parser and jet evaluation to first or third order.

Grammar: standard infix with precedence ^ > unary- > *,/ > +,- and
parentheses; functions exp, ln, sin, cos, tanh, sqrt; the constant pi; one
free variable fixed at parse time.  A numeric literal must be finite (1e400
is a syntax error at its position).  Exponents of ^ must be constant.

Evaluation propagates truncated Taylor jets, so derivatives come out exact to
rounding -- no finite differencing.  There is no syntax tree: each
production of the parser builds its node's canonical text and its jet
function at two orders, 1 (value and first derivative) and 3, each from that
order's rules, and a subtree without the variable is evaluated then and
folded to its coefficients.  The text is what str() returns and what a
DomainError quotes, and Expressions compare by it.  The functions are the
only evaluator: the parser evaluates each constant exponent with them,
eval_jet3 calls the order-3 one and eval_jet1 the order-1 one.

Each node's function does its rule's arithmetic in its own body.  A binary
node with a folded operand keeps that operand's coefficients in its closure
and does the same float arithmetic with them, zero terms included, instead
of calling for them; b^-n is such a division of a folded 1 by b^n.  A
function node computes F, its derivatives and their composition at its
order.  So an order-1 jet is the order-3 jet's (f, d1)
bit for bit, wherever the order-3 jet evaluates; where only its second or
third derivative terms overflow, the order-1 jet still evaluates.  A jet of
the qi-bound weight exp(-(x/1.7)^2)/(1.7*sqrt(pi)) takes 0.89 us at order 1
and 2.4 us at order 3, against 2.7 us when each node's closure called a
separate rule function (2-core Xeon, CPython 3.11.7, best of 9).

A function of a jet with no derivative terms (a constant) takes only its
value, so derivative terms it never uses cannot overflow.  A node that
leaves its domain, overflows or makes a math function raise ValueError
raises DomainError naming that node.  A constant subtree that fails so is
not folded, and fails at each evaluation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import DomainError, ExpressionSyntaxError, UnknownIdentifier

__all__ = ["Expression", "Jet3", "parse", "eval_jet1", "eval_jet3"]


@dataclass(frozen=True)
class Expression:
    """Parsed expression in a single named variable: its canonical text and
    its compiled form at orders 3 and 1."""

    text: str
    variable: str
    # the compiled forms: the variable's Taylor coefficients -> the expression's
    taylor: Callable[[tuple], tuple] = field(repr=False, compare=False)
    taylor1: Callable[[tuple], tuple] = field(repr=False, compare=False)

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
        return _pow(base, exponent.jet3(_ONE)[0])

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
                return _Node(_identity, _identity, text, 5, None)
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
    return Expression(node.text, variable, node.jet3, node.jet1)


# --- jets ---------------------------------------------------------------


class Jet3(NamedTuple):
    """Value and first three derivatives at a point."""

    f: float
    d1: float
    d2: float
    d3: float


# Internal representation: Taylor coefficients c_k = f^(k)/k!, (c0, c1) at
# order 1 and (c0, c1, c2, c3) at order 3, which keeps products and
# compositions short.
_ONE = (1.0, 0.0, 0.0, 0.0)

# ValueError: math.sin(inf), round(nan), ...; ArithmeticError: float overflow,
# or a derivative's 1/x^k overflowing
_FAILURES = (ValueError, ArithmeticError)


def _domain_error(reason: str, text: str) -> DomainError:
    """The DomainError of the node whose text is `text`; a child's
    DomainError passes through its parents."""
    return DomainError(f"{reason} in '{text}'")


def _failure(exc: Exception, text: str) -> DomainError:
    """_domain_error for one of _FAILURES."""
    return _domain_error("overflow" if isinstance(exc, ArithmeticError) else str(exc), text)


# --- rules, at orders 1 and 3 --------------------------------------------
#
# A rule builds a node's function at its order from its operands'.  A binary
# rule also gets each operand's coefficients at that order if it was folded,
# else None, and reads a folded operand from its closure instead of calling
# for it.  Only a division, a power and a function can fail.


def _add1(lf, rf, lc, rc, text):
    def add(at):
        a0, a1 = lc or lf(at)
        b0, b1 = rc or rf(at)
        return (a0 + b0, a1 + b1)

    return add


def _sub1(lf, rf, lc, rc, text):
    def sub(at):
        a0, a1 = lc or lf(at)
        b0, b1 = rc or rf(at)
        return (a0 - b0, a1 - b1)

    return sub


def _mul1(lf, rf, lc, rc, text):
    def mul(at):
        a0, a1 = lc or lf(at)
        b0, b1 = rc or rf(at)
        return (a0 * b0, a0 * b1 + a1 * b0)

    return mul


def _div1(lf, rf, lc, rc, text):
    def div(at):
        a0, a1 = lc or lf(at)
        b0, b1 = rc or rf(at)
        if b0 == 0.0:
            raise _domain_error("division by zero", text)
        d0 = a0 / b0
        return (d0, (a1 - d0 * b1) / b0)

    return div


def _neg1(g):
    def neg(at):
        a0, a1 = g(at)
        return (-a0, -a1)

    return neg


def _integer_power1(n: int, g):
    """b^n, n >= 0, as n products from 1."""
    times = range(n)

    def power(at):
        b0, b1 = g(at)
        o0, o1 = 1.0, 0.0
        for _ in times:
            o0, o1 = o0 * b0, o0 * b1 + o1 * b0
        return (o0, o1)

    return power


def _function1(function, g, jet3, text: str):
    """F(u), F's entry in FUNCTIONS; jet3 is the same node's order-3 function."""
    value, first, _, undefined = function

    def call(at):
        u0, u1 = g(at)
        if u1 == 0.0:
            # order 3 skips F' where all of u's derivative terms are zero,
            # which u' = 0 alone cannot tell: take order 3's (f, d1)
            c = jet3((at[0], at[1], 0.0, 0.0))
            return (c[0], c[1])
        try:
            if undefined and u0 <= 0.0:
                raise _domain_error(undefined, text)
            f0 = value(u0)
            return (f0, (first(u0, f0) if first else f0) * u1)
        except _FAILURES as exc:
            raise _failure(exc, text) from None

    return call


def _add3(lf, rf, lc, rc, text):
    def add(at):
        a0, a1, a2, a3 = lc or lf(at)
        b0, b1, b2, b3 = rc or rf(at)
        return (a0 + b0, a1 + b1, a2 + b2, a3 + b3)

    return add


def _sub3(lf, rf, lc, rc, text):
    def sub(at):
        a0, a1, a2, a3 = lc or lf(at)
        b0, b1, b2, b3 = rc or rf(at)
        return (a0 - b0, a1 - b1, a2 - b2, a3 - b3)

    return sub


def _mul3(lf, rf, lc, rc, text):
    def mul(at):
        a0, a1, a2, a3 = lc or lf(at)
        b0, b1, b2, b3 = rc or rf(at)
        return (
            a0 * b0,
            a0 * b1 + a1 * b0,
            a0 * b2 + a1 * b1 + a2 * b0,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        )

    return mul


def _div3(lf, rf, lc, rc, text):
    def div(at):
        a0, a1, a2, a3 = lc or lf(at)
        b0, b1, b2, b3 = rc or rf(at)
        if b0 == 0.0:
            raise _domain_error("division by zero", text)
        d0 = a0 / b0
        d1 = (a1 - d0 * b1) / b0
        d2 = (a2 - d0 * b2 - d1 * b1) / b0
        return (d0, d1, d2, (a3 - d0 * b3 - d1 * b2 - d2 * b1) / b0)

    return div


def _neg3(g):
    def neg(at):
        a0, a1, a2, a3 = g(at)
        return (-a0, -a1, -a2, -a3)

    return neg


def _integer_power3(n: int, g):
    """b^n, n >= 0, as n products from 1."""
    times = range(n)

    def power(at):
        b0, b1, b2, b3 = g(at)
        o0, o1, o2, o3 = _ONE
        for _ in times:
            o0, o1, o2, o3 = (
                o0 * b0,
                o0 * b1 + o1 * b0,
                o0 * b2 + o1 * b1 + o2 * b0,
                o0 * b3 + o1 * b2 + o2 * b1 + o3 * b0,
            )
        return (o0, o1, o2, o3)

    return power


def _function3(function, g, text: str):
    """F(u), F's entry in FUNCTIONS: the truncated series f0 + f1*p +
    f2/2*p^2 + f3/6*p^3 in p = u - u[0], with p^2 and p^3 written out.  Each
    coefficient sums only the terms that reach it, so F(u)' reads only f1 and
    F(u)'' only f1 and f2: an F''' that overflows leaves them finite."""
    value, first, higher, undefined = function

    def call(at):
        u0, u1, u2, u3 = g(at)
        try:
            if undefined and u0 <= 0.0:
                raise _domain_error(undefined, text)
            f0 = value(u0)
            if u1 == u2 == u3 == 0.0:
                # a constant: F(u) has no derivative terms, and F's own may overflow where f0 does not
                return (f0, 0.0, 0.0, 0.0)
            f1 = first(u0, f0) if first else f0
            f2, f3 = higher(u0, f0, f1)
        except _FAILURES as exc:
            raise _failure(exc, text) from None
        h2, h3 = f2 / 2.0, f3 / 6.0
        m = u1 * u2
        return (f0, f1 * u1, f1 * u2 + h2 * (u1 * u1), f1 * u3 + h2 * (m + m) + h3 * (u1 * u1 * u1))

    return call


# symbol -> (precedence, order-1 rule, order-3 rule); the parser and _binary
# read their binary operators from here.
_BINARY = {
    "+": (1, _add1, _add3),
    "-": (1, _sub1, _sub3),
    "*": (2, _mul1, _mul3),
    "/": (2, _div1, _div3),
}


# F'(x) from x and F(x), the rule both orders read; and F''(x), F'''(x) from
# x, F(x) and F'(x), which only order 3 reads
def _sech2(x: float, f0: float):
    # tanh' from e^(-2|x|), not as 1 - tanh^2, which is 0 once tanh rounds to 1
    e = math.exp(-2.0 * abs(x))
    return 4.0 * e / ((1.0 + e) * (1.0 + e))


def _exp(x: float, f0: float, f1: float):
    return f0, f0


def _ln(x: float, f0: float, f1: float):
    return -1.0 / x**2, 2.0 / x**3


def _sin_cos(x: float, f0: float, f1: float):
    # sin'' = -sin and sin''' = -sin', and the same for cos
    return -f0, -f1


def _tanh(x: float, f0: float, f1: float):
    return -2.0 * f0 * f1, f1 * (6.0 * f0 * f0 - 2.0)


def _sqrt(x: float, f0: float, f1: float):
    return -0.25 / (x * f0), 0.375 / (x * x * f0)


# name -> F, F' (None where F' = F), F'' and F''', and the message for a
# value outside F's domain (None where F takes every real)
FUNCTIONS = {
    "exp": (math.exp, None, _exp, None),
    "ln": (math.log, lambda x, f0: 1.0 / x, _ln, "ln of non-positive value"),
    "sin": (math.sin, lambda x, f0: math.cos(x), _sin_cos, None),
    "cos": (math.cos, lambda x, f0: -math.sin(x), _sin_cos, None),
    "tanh": (math.tanh, _sech2, _tanh, None),
    "sqrt": (math.sqrt, lambda x, f0: 0.5 / f0, _sqrt, "sqrt of non-positive value"),
}


def _real_power(p: float):
    """The FUNCTIONS entry of ^p, for a finite p that is not a small integer."""
    p1 = p * (p - 1.0)
    p2 = p1 * (p - 2.0)

    def first(x: float, f0: float):
        return p * x ** (p - 1.0)

    def higher(x: float, f0: float, f1: float):
        return p1 * x ** (p - 2.0), p2 * x ** (p - 3.0)

    return (lambda x: x**p, first, higher, "non-integer power of non-positive base")


# --- nodes ---------------------------------------------------------------


class _Node(NamedTuple):
    """One parser production: its jet functions at orders 1 and 3, its
    canonical text, its precedence (a binary operator's from _BINARY, unary
    minus 3, ^ 4, a number, the variable or a call 5), and its order-3
    coefficients if it was folded, else None."""

    jet1: Callable[[tuple], tuple]
    jet3: Callable[[tuple], tuple]
    text: str
    prec: int
    const: tuple | None


# the variable's jet function: tuple(at) is the tuple `at` itself, returned
# without the frame of a Python function
_identity = tuple


def _wrap(node: _Node, min_prec: int) -> str:
    return f"({node.text})" if node.prec < min_prec else node.text


def _node(jet1, jet3, text: str, prec: int, foldable: bool) -> _Node:
    """The node of jet1 and jet3, whose operands are all folded if
    `foldable`.  Such a node that evaluates is folded: its functions return
    the coefficients computed here.  One that fails stays unfolded, so it
    fails at each evaluation."""
    if foldable:
        try:
            c = jet3(_ONE)  # nothing below reads the point
        except DomainError:
            pass
        else:
            return _folded(c, text, prec)
    return _Node(jet1, jet3, text, prec, None)


def _folded(c: tuple, text: str, prec: int) -> _Node:
    c1 = c[:2]
    return _Node(lambda at: c1, lambda at: c, text, prec, c)


def _const(value: float) -> _Node:
    return _folded((value, 0.0, 0.0, 0.0), repr(value), 5)


def _binary(op: str, left: _Node, right: _Node) -> _Node:
    prec, rule1, rule3 = _BINARY[op]
    text = _wrap(left, prec) + (f" {op} " if prec == 1 else op) + _wrap(right, prec + 1)
    lc, rc = left.const, right.const
    return _node(
        rule1(left.jet1, right.jet1, lc and lc[:2], rc and rc[:2], text),
        rule3(left.jet3, right.jet3, lc, rc, text),
        text,
        prec,
        lc is not None and rc is not None,
    )


def _neg(arg: _Node) -> _Node:
    return _node(_neg1(arg.jet1), _neg3(arg.jet3), "-" + _wrap(arg, 3), 3, arg.const is not None)


def _apply(function, arg: _Node, text: str, prec: int) -> _Node:
    jet3 = _function3(function, arg.jet3, text)
    return _node(_function1(function, arg.jet1, jet3, text), jet3, text, prec, arg.const is not None)


def _failing(g, message: str):
    def fail(at):
        g(at)
        raise DomainError(message)

    return fail


def _pow(base: _Node, p: float) -> _Node:
    """base^p, its integer or real branch chosen once."""
    text = f"{_wrap(base, 5)}^{p!r}"
    if not math.isfinite(p):
        try:
            round(p)  # as the integer test does: ValueError for nan, OverflowError for +-inf
        except _FAILURES as exc:
            message = str(_failure(exc, text))
        return _node(_failing(base.jet1, message), _failing(base.jet3, message), text, 4, False)
    foldable = base.const is not None
    if p == round(p) and abs(p) <= 64:
        n = int(p)
        jet1, jet3 = _integer_power1(abs(n), base.jet1), _integer_power3(abs(n), base.jet3)
        if n < 0:  # 1/b^|n|, by the quotient rule with its numerator folded
            jet1, jet3 = _div1(None, jet1, _ONE[:2], None, text), _div3(None, jet3, _ONE, None, text)
        return _node(jet1, jet3, text, 4, foldable)
    return _apply(_real_power(p), base, text, 4)


def _call(fn: str, arg: _Node) -> _Node:
    return _apply(FUNCTIONS[fn], arg, f"{fn}({arg.text})", 5)


# builds a Jet3 from a tuple without the Python-level __new__ of a NamedTuple
_make_jet = tuple.__new__


def eval_jet3(expression: Expression, v: float) -> Jet3:
    """Evaluate the expression and its first three derivatives at v."""
    try:
        c0, c1, c2, c3 = expression.taylor((v, 1.0, 0.0, 0.0))
    except RecursionError:  # a node's function calls its children's
        raise DomainError("expression nested too deeply to evaluate") from None
    return _make_jet(Jet3, (c0, c1, 2.0 * c2, 6.0 * c3))


def eval_jet1(expression: Expression, v: float) -> tuple[float, float]:
    """Evaluate the expression and its first derivative at v: eval_jet3's f
    and d1, bit for bit, wherever eval_jet3 evaluates."""
    try:
        return expression.taylor1((v, 1.0))
    except RecursionError:
        raise DomainError("expression nested too deeply to evaluate") from None
