"""One-variable expression parser and third-order jet evaluation.

Grammar: standard infix with precedence ^ > unary- > *,/ > +,- and
parentheses; functions exp, ln, sin, cos, tanh, sqrt; the constant pi; one
free variable fixed at parse time.  A numeric literal must be finite (1e400
is a syntax error at its position).  Exponents of ^ must be constant; the
parser evaluates each one once, with the same jet evaluator as the rest.

Evaluation propagates truncated Taylor jets, so first through third
derivatives come out exact to rounding -- no finite differencing.  A
function of a jet with no derivative terms (a constant) takes only its
value, so derivative terms it never uses cannot overflow.  A node that leaves
its domain, overflows or makes a math function raise ValueError raises
DomainError naming that node; its text is formatted only then.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, ExpressionSyntaxError, UnknownIdentifier

__all__ = ["Expression", "Jet3", "parse", "eval_jet3"]

# name -> value; _call adds the derivative rules
FUNCTIONS = {
    "exp": math.exp,
    "ln": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
}


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

    def __str__(self) -> str:
        return _to_text(self.root, self.variable)


# --- tokenizer / parser -------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise ExpressionSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.lastgroup == "num":
            if not math.isfinite(float(m.group("num"))):
                raise ExpressionSyntaxError(
                    f"numeric literal {m.group('num')!r} is not finite", m.start("num")
                )
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
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
        return Pow(base, _eval(exponent, (0.0, 0.0, 0.0, 0.0), self.variable)[0])

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


@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives at a point."""

    f: float
    d1: float
    d2: float
    d3: float


# Internal representation: Taylor coefficients (c0, c1, c2, c3),
# c_k = f^(k)/k!, which keeps products and compositions short.
_TC = tuple[float, float, float, float]


class _Undefined(Exception):
    """A jet rule left its domain; _eval re-raises it as a DomainError that
    names the node."""


def _add(a: _TC, b: _TC) -> _TC:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _sub(a: _TC, b: _TC) -> _TC:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def _mul(a: _TC, b: _TC) -> _TC:
    return (
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
        a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0],
    )


def _div(a: _TC, b: _TC) -> _TC:
    if b[0] == 0.0:
        raise _Undefined("division by zero")
    d0 = a[0] / b[0]
    d1 = (a[1] - d0 * b[1]) / b[0]
    d2 = (a[2] - d0 * b[2] - d1 * b[1]) / b[0]
    d3 = (a[3] - d0 * b[3] - d1 * b[2] - d2 * b[1]) / b[0]
    return (d0, d1, d2, d3)


# symbol -> (precedence, jet rule); the parser, the printer and _eval all
# read their binary operators from here.
_BINARY = {"+": (1, _add), "-": (1, _sub), "*": (2, _mul), "/": (2, _div)}


def _compose(f0: float, f1: float, f2: float, f3: float, u: _TC) -> _TC:
    """Taylor coefficients of F(u) from derivatives of F at u's value."""
    p = (0.0, u[1], u[2], u[3])
    p2 = _mul(p, p)
    p3 = _mul(p2, p)
    return (
        f0,  # p[0] = 0, so no derivative term reaches the value
        f1 * p[1] + f2 / 2.0 * p2[1] + f3 / 6.0 * p3[1],
        f1 * p[2] + f2 / 2.0 * p2[2] + f3 / 6.0 * p3[2],
        f1 * p[3] + f2 / 2.0 * p2[3] + f3 / 6.0 * p3[3],
    )


def _pow(base: _TC, p: float) -> _TC:
    if p == round(p) and abs(p) <= 64:
        n = int(round(p))
        if n < 0:
            return _div((1.0, 0.0, 0.0, 0.0), _pow(base, float(-n)))
        out = (1.0, 0.0, 0.0, 0.0)
        for _ in range(n):
            out = _mul(out, base)
        return out
    x = base[0]
    if x <= 0.0:
        raise _Undefined("non-integer power of non-positive base")
    if base[1] == base[2] == base[3] == 0.0:  # a constant, as in _call
        return (x**p, 0.0, 0.0, 0.0)
    return _compose(
        x**p,
        p * x ** (p - 1.0),
        p * (p - 1.0) * x ** (p - 2.0),
        p * (p - 1.0) * (p - 2.0) * x ** (p - 3.0),
        base,
    )


def _call(fn: str, u: _TC) -> _TC:
    x = u[0]
    if fn in ("ln", "sqrt") and x <= 0.0:
        raise _Undefined(f"{fn} of non-positive value")
    f0 = FUNCTIONS[fn](x)
    if u[1] == u[2] == u[3] == 0.0:
        # a constant: F(u) has no derivative terms, and F's own may overflow where f0 does not
        return (f0, 0.0, 0.0, 0.0)
    if fn == "exp":
        return _compose(f0, f0, f0, f0, u)
    if fn == "ln":
        return _compose(f0, 1.0 / x, -1.0 / x**2, 2.0 / x**3, u)
    if fn == "sin":
        c = math.cos(x)
        return _compose(f0, c, -f0, -c, u)
    if fn == "cos":
        s = math.sin(x)
        return _compose(f0, -s, -f0, s, u)
    if fn == "tanh":
        sech2 = 1.0 - f0 * f0
        return _compose(f0, sech2, -2.0 * f0 * sech2, sech2 * (6.0 * f0 * f0 - 2.0), u)
    # sqrt
    return _compose(f0, 0.5 / f0, -0.25 / (x * f0), 0.375 / (x * x * f0), u)


def _eval(node: Node, at: _TC, variable: str) -> _TC:
    if isinstance(node, Const):
        return (node.value, 0.0, 0.0, 0.0)
    if isinstance(node, Var):
        return at
    if isinstance(node, Neg):
        a = _eval(node.arg, at, variable)
        return (-a[0], -a[1], -a[2], -a[3])
    # A child that fails raises DomainError itself, which passes through here.
    try:
        if isinstance(node, Binary):
            rule = _BINARY[node.op][1]
            return rule(_eval(node.left, at, variable), _eval(node.right, at, variable))
        if isinstance(node, Pow):
            return _pow(_eval(node.base, at, variable), node.exponent)
        return _call(node.fn, _eval(node.arg, at, variable))
    except (_Undefined, ValueError) as exc:  # ValueError: math.sin(inf), round(nan), ...
        reason = str(exc)
    except ArithmeticError:  # float overflow, or a derivative's 1/x^k overflowing
        reason = "overflow"
    raise DomainError(f"{reason} in '{_to_text(node, variable)}'") from None


def eval_jet3(expression: Expression, v: float) -> Jet3:
    """Evaluate the expression and its first three derivatives at v."""
    c = _eval(expression.root, (v, 1.0, 0.0, 0.0), expression.variable)
    return Jet3(c[0], c[1], 2.0 * c[2], 6.0 * c[3])
