import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab import exprlang
from regulab.errors import DomainError, ExpressionSyntaxError, UnknownIdentifier
from regulab.exprlang import eval_jet3, parse


def jet_tuple(expr, v):
    j = eval_jet3(expr, v)
    return (j.f, j.d1, j.d2, j.d3)


class TestParse:
    def test_identity(self):
        e = parse("v", "v")
        assert jet_tuple(e, 3.7) == (3.7, 1.0, 0.0, 0.0)

    def test_two_node_composition(self):
        e = parse("exp(2*v)", "v")
        assert jet_tuple(e, 0.0) == (1.0, 2.0, 4.0, 8.0)

    def test_unbalanced_parenthesis_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("sin(", "v")
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse("v + w", "v")
        assert err.value.name == "w"
        assert err.value.position == 4

    def test_empty_text(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ", "v")

    def test_pi_constant(self):
        e = parse("2*pi", "x")
        assert jet_tuple(e, 1.0)[0] == 2.0 * math.pi

    def test_variable_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("v^v", "v")

    def test_constant_expression_exponent(self):
        e = parse("v^(1+1)", "v")
        assert jet_tuple(e, 3.0) == (9.0, 6.0, 2.0, 0.0)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("v 2", "v")

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("v @ 2", "v")

    @pytest.mark.parametrize("text,literal,position", [("v*1e400", "1e400", 2), ("2.5E+309 - v", "2.5E+309", 0)])
    def test_literal_that_is_not_finite_rejected(self, text, literal, position):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text, "v")
        assert err.value.position == position
        assert f"numeric literal '{literal}' is not finite" in str(err.value)


class TestPrecedence:
    def test_power_binds_tighter_than_unary_minus(self):
        e = parse("-v^2", "v")
        assert jet_tuple(e, 3.0)[0] == -9.0

    def test_power_right_associative(self):
        e = parse("2^3^2", "v")
        assert jet_tuple(e, 0.0)[0] == 512.0

    def test_mul_before_add(self):
        e = parse("1 + 2*v", "v")
        assert jet_tuple(e, 2.0)[0] == 5.0

    def test_negative_exponent(self):
        e = parse("v^-2", "v")
        assert jet_tuple(e, 2.0)[0] == 0.25


class TestJets:
    def test_sin_maclaurin(self):
        assert jet_tuple(parse("sin(v)", "v"), 0.0) == (0.0, 1.0, 0.0, -1.0)

    def test_random_polynomials_match_symbolic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            coeffs = [float(c) for c in rng.uniform(-3.0, 3.0, size=rng.integers(1, 7))]
            text = " + ".join(
                f"({c!r})*v^{k}" if k else f"({c!r})" for k, c in enumerate(coeffs)
            )
            e = parse(text, "v")
            v0 = float(rng.uniform(-2.0, 2.0))
            p = np.polynomial.Polynomial(coeffs)
            expect = (p(v0), p.deriv(1)(v0), p.deriv(2)(v0), p.deriv(3)(v0))
            got = jet_tuple(e, v0)
            for g, w in zip(got, expect):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w))

    SMOOTH = [
        ("exp(v)*sin(v)", 0.7),
        ("tanh(v)/(1 + v^2)", -0.4),
        ("ln(2 + cos(v))", 1.3),
        ("sqrt(1 + v^2)", 0.9),
        ("exp(-(v/2)^2)/(2*sqrt(pi))", 0.5),
    ]

    @pytest.mark.parametrize("text,v0", SMOOTH)
    def test_against_central_differences(self, text, v0):
        e = parse(text, "v")
        h = 1e-5
        f = lambda x: eval_jet3(e, x).f
        d1_fd = (f(v0 + h) - f(v0 - h)) / (2 * h)
        d2_fd = (f(v0 + h) - 2 * f(v0) + f(v0 - h)) / (h * h)
        jet = eval_jet3(e, v0)
        assert abs(jet.d1 - d1_fd) <= 1e-7 * max(1.0, abs(jet.d1))
        assert abs(jet.d2 - d2_fd) <= 1e-4 * max(1.0, abs(jet.d2))

    @pytest.mark.parametrize("text,v0", SMOOTH)
    def test_third_derivative_against_sympy(self, text, v0):
        sympy = pytest.importorskip("sympy")
        v = sympy.Symbol("v")
        sym = sympy.sympify(text.replace("^", "**").replace("ln", "log"), locals={"v": v})
        expect = float(sympy.diff(sym, v, 3).subs(v, v0))
        got = eval_jet3(parse(text, "v"), v0).d3
        assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


class TestDomainErrors:
    @pytest.mark.parametrize(
        "text,v0",
        [
            ("ln(v)", -1.0),
            ("ln(v)", 0.0),
            ("sqrt(v)", -2.0),
            ("1/v", 0.0),
            ("v^0.5", -1.0),
            ("v^-2", 0.0),
        ],
    )
    def test_raises_domain_error(self, text, v0):
        with pytest.raises(DomainError):
            eval_jet3(parse(text, "v"), v0)

    def test_error_names_offending_node(self):
        with pytest.raises(DomainError) as err:
            eval_jet3(parse("1/(v - 1)", "v"), 1.0)
        assert "v - 1" in str(err.value)

    @pytest.mark.parametrize(
        "text,node",
        [
            ("v^(1/0)", "1.0/0.0"),
            ("v^((-8)^(1/3))", "(-8.0)^0.3333333333333333"),
            ("v^(2^1000000)", "2.0^1000000.0"),
            ("v^ln(-1)", "ln(-1.0)"),
        ],
    )
    def test_constant_exponent_fails_at_parse_time(self, text, node):
        with pytest.raises(DomainError) as err:
            parse(text, "v")
        assert f"in '{node}'" in str(err.value)

    @pytest.mark.parametrize(
        "text,node", [("2^2000", "2.0^2000.0"), ("exp(1000*v)", "exp(1000.0*v)")]
    )
    def test_overflow_names_offending_node(self, text, node):
        with pytest.raises(DomainError) as err:
            eval_jet3(parse(text, "v"), 1.0)
        assert str(err.value) == f"overflow in '{node}'"

    @pytest.mark.parametrize(
        "text,node,reason",
        [
            ("v + sin(1e200*1e200)", "sin(1e+200*1e+200)", "math domain error"),
            ("v^(0*(1e200*1e200))", "v^nan", "cannot convert float NaN to integer"),
        ],
    )
    def test_value_error_names_offending_node(self, text, node, reason):
        with pytest.raises(DomainError) as err:
            eval_jet3(parse(text, "v"), 1.0)
        assert str(err.value) == f"{reason} in '{node}'"

    @pytest.mark.parametrize(
        "text,same_as",
        [
            ("v*ln(1e200)", f"v*{math.log(1e200)!r}"),
            ("v*sqrt(1e-200)", f"v*{math.sqrt(1e-200)!r}"),
            ("v^(1e-200^0.5)", f"v^{1e-200 ** 0.5!r}"),
            ("v^ln(1e300)", f"v^{math.log(1e300)!r}"),
            ("v^(0.5^1e300)", "v^0.0"),
        ],
    )
    def test_constant_skips_derivative_terms(self, text, same_as):
        # a constant's derivative terms are zero however large F's derivatives
        # at its value are
        e, plain = parse(text, "v"), parse(same_as, "v")
        for v0 in (0.5, 1.0, 2.0):
            assert eval_jet3(e, v0) == eval_jet3(plain, v0)


def test_evaluation_formats_no_text(monkeypatch):
    e = parse("exp(-(x/2)^2)/(2*sqrt(pi))", "x")
    expect = eval_jet3(e, 0.5)

    def refuse(node, variable):
        raise AssertionError("evaluation formatted a node")

    monkeypatch.setattr(exprlang, "_to_text", refuse)
    assert eval_jet3(e, 0.5) == expect


ROUND_TRIP_CASES = [
    "v",
    "-v^2",
    "(-v)^2",
    "(v^2.0)^3.0",
    "1 + 2*v - 3/(v + 4)",
    "exp(2*v)",
    "sin(cos(tanh(v)))",
    "exp(-(v/2)^2)/(2*sqrt(pi))",
    "v + 0.1*sin(v)",
    "2^3^2 + v",
    "1e-05*v + 2.5E3",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_print_parse_round_trip(text):
    e = parse(text, "v")
    again = parse(str(e), "v")
    assert again == e


@st.composite
def random_expression(draw):
    depth = draw(st.integers(min_value=0, max_value=4))

    def build(d):
        if d == 0:
            which = draw(st.integers(0, 2))
            if which == 0:
                return "v"
            if which == 1:
                return repr(draw(st.floats(0.1, 9.0, allow_nan=False)))
            return "pi"
        kind = draw(st.integers(0, 6))
        a = build(d - 1)
        b = build(d - 1)
        if kind == 0:
            return f"{a} + {b}"
        if kind == 1:
            return f"{a} - {b}"
        if kind == 2:
            return f"{a}*{b}"
        if kind == 3:
            return f"{a}/({b} + 10)"
        if kind == 4:
            return f"-({a})"
        if kind == 5:
            fn = ("exp", "sin", "cos", "tanh")[draw(st.integers(0, 3))]
            return f"{fn}({a})"
        return f"({a})^{draw(st.integers(0, 3))}"

    return build(depth)


@given(random_expression())
@settings(max_examples=60, deadline=None)
def test_round_trip_random(text):
    e = parse(text, "v")
    assert parse(str(e), "v") == e
