"""One-variable expression parser and third-order jet evaluation.

Grammar: standard infix with precedence ^ > unary- > *,/ > +,- and
parentheses; functions exp, ln, sin, cos, tanh, sqrt; the constant pi; one
free variable fixed at parse time.  A numeric literal must be finite (1e400
is a syntax error at its position).  Exponents of ^ must be constant.

Evaluation propagates truncated Taylor jets, so first through third
derivatives come out exact to rounding -- no finite differencing.  Each
Expression is compiled once, when it is built, into one closure per node,
each holding its jet rule; a subtree without the variable is evaluated then
and folded to its value.  Those closures are the only evaluator: the parser
evaluates each constant exponent with them, and eval_jet3 calls them.  A
function of a jet with no derivative terms (a constant) takes only its
value, so derivative terms it never uses cannot overflow.  A node that leaves
its domain, overflows or makes a math function raise ValueError raises
DomainError naming that node; its text is formatted only then.  A constant
subtree that fails so is not folded, and fails at each evaluation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

from .errors import DomainError, ExpressionSyntaxError, UnknownIdentifier

__all__ = ["Expression", "Jet3", "parse", "eval_jet3"]

# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # a key of _BINARY
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Const, Var, Neg, Binary, Pow, Call]

# Binary operators take their precedence from _BINARY.
_PREC = {Neg: 3, Pow: 4, Const: 5, Var: 5, Call: 5}


def _prec(node: Node) -> int:
    return _BINARY[node.op][0] if isinstance(node, Binary) else _PREC[type(node)]


def _to_text(node: Node, variable: str) -> str:
    def wrap(child: Node, min_prec: int) -> str:
        text = _to_text(child, variable)
        return f"({text})" if _prec(child) < min_prec else text

    if isinstance(node, Binary):
        prec = _BINARY[node.op][0]
        op = f" {node.op} " if prec == 1 else node.op
        return f"{wrap(node.left, prec)}{op}{wrap(node.right, prec + 1)}"
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return variable
    if isinstance(node, Neg):
        return "-" + wrap(node.arg, 3)
    if isinstance(node, Pow):
        return f"{wrap(node.base, 5)}^{repr(node.exponent)}"
    return f"{node.fn}({_to_text(node.arg, variable)})"


@dataclass(frozen=True)
class Expression:
    """Parsed expression in a single named variable."""

    root: Node
    variable: str
    # the compiled form: the variable's Taylor coefficients -> the expression's
    taylor: Callable[[tuple], tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "taylor", _compile(self.root, self.variable)[0])

    def __str__(self) -> str:
        return _to_text(self.root, self.variable)


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

    def parse(self) -> Node:
        node = self.binary()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ExpressionSyntaxError(f"unexpected trailing input {text!r}", pos)
        return node

    def binary(self, min_prec: int = 1) -> Node:
        """Precedence climbing over _BINARY; every binary operator is
        left-associative."""
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            prec = _BINARY[text][0] if kind == "op" and text in _BINARY else 0
            if prec < min_prec:
                return node
            self.next()
            node = Binary(text, node, self.binary(prec + 1))

    def factor(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.factor())
        if kind == "op" and text == "+":
            self.next()
            return self.factor()
        return self.power()

    def power(self) -> Node:
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
        return Pow(base, _compile(exponent, self.variable)[0](_ONE)[0])

    def atom(self) -> Node:
        kind, text, pos = self.next()
        if kind == "num":
            return Const(float(text))
        if kind == "op" and text == "(":
            node = self.binary()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text == self.variable:
                self.variable_count += 1
                return Var()
            if text == "pi":
                return Const(math.pi)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.binary()
                self.expect_op(")")
                return Call(text, arg)
            raise UnknownIdentifier(text, pos)
        raise ExpressionSyntaxError(
            "unexpected end of input" if kind == "eof" else f"unexpected {text!r}", pos
        )


def parse(text: str, variable: str) -> Expression:
    """Parse `text` as an expression in the single variable `variable`."""
    if not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return Expression(_Parser(text, variable).parse(), variable)


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


# symbol -> (precedence, jet rule); the parser, the printer and the compiler
# all read their binary operators from here.
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


def _failure(exc: Exception, node: Node, variable: str) -> DomainError:
    """The DomainError for one of _FAILURES raised while evaluating node."""
    reason = "overflow" if isinstance(exc, ArithmeticError) else str(exc)
    return DomainError(f"{reason} in '{_to_text(node, variable)}'")


def _compile(node: Node, variable: str):
    """(f, folded): f maps the variable's Taylor coefficients to node's
    through one closure per node.  A node without the variable that evaluates
    is folded: its f returns the coefficients computed here.

    A node that fails raises DomainError naming itself, and a child's
    DomainError passes through its parents.  A node without the variable
    that fails stays unfolded, so it fails at each evaluation.
    """
    if isinstance(node, Const):
        c = (node.value, 0.0, 0.0, 0.0)
        return (lambda at: c), True
    if isinstance(node, Var):
        return (lambda at: at), False
    if isinstance(node, Binary):
        left, left_folded = _compile(node.left, variable)
        right, right_folded = _compile(node.right, variable)
        folded = left_folded and right_folded
        rule = _BINARY[node.op][1]

        def f(at):
            try:
                return rule(left(at), right(at))
            except _FAILURES as exc:
                raise _failure(exc, node, variable) from None

    else:
        arg, folded = _compile(node.base if isinstance(node, Pow) else node.arg, variable)
        if isinstance(node, Neg):

            def f(at):
                a0, a1, a2, a3 = arg(at)
                return (-a0, -a1, -a2, -a3)

        else:
            rule = _power(node.exponent) if isinstance(node, Pow) else _rule(*FUNCTIONS[node.fn])

            def f(at):
                try:
                    return rule(arg(at))
                except _FAILURES as exc:
                    raise _failure(exc, node, variable) from None

    if not folded:
        return f, False
    try:
        c = f(_ONE)  # nothing below reads the point
    except DomainError:
        return f, False
    return (lambda at: c), True


# builds a Jet3 from a tuple without the Python-level __new__ of a NamedTuple
_make_jet = tuple.__new__


def eval_jet3(expression: Expression, v: float) -> Jet3:
    """Evaluate the expression and its first three derivatives at v."""
    c0, c1, c2, c3 = expression.taylor((v, 1.0, 0.0, 0.0))
    return _make_jet(Jet3, (c0, c1, 2.0 * c2, 6.0 * c3))
