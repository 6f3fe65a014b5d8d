import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab import exprlang
from regulab.errors import DomainError, ExpressionSyntaxError, UnknownIdentifier
from regulab.exprlang import eval_jet1, eval_jet3, parse


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

    @pytest.mark.parametrize(
        "text,same_as", [("v  ", "v"), ("v\t+\n1", "v+1"), (" sin( v )\n", "sin(v)"), ("+v", "v"), ("-+v", "-v")]
    )
    def test_whitespace_and_unary_plus(self, text, same_as):
        assert parse(text, "v") == parse(same_as, "v")

    @pytest.mark.parametrize(
        "text,message,position", [("v + @", "unexpected character '@'", 4), ("sin(v", "expected ')'", 5)]
    )
    def test_syntax_error_message_and_position(self, text, message, position):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text, "v")
        assert message in str(err.value)
        assert err.value.position == position

    @pytest.mark.parametrize("text", ["(" * 300 + "v" + ")" * 300, "-" * 2000 + "v"], ids=["parentheses", "unary-minus"])
    def test_nesting_deeper_than_the_recursion_limit_is_a_syntax_error(self, text):
        with pytest.raises(ExpressionSyntaxError, match=r"expression nested too deeply \(position 0\)"):
            parse(text, "v")

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

    @pytest.mark.parametrize("v0", [-30.0, -20.0, -0.7, 0.0, 1e-9, 3.0, 19.1, 20.0, 300.0])
    def test_tanh_derivative_does_not_cancel(self, v0):
        # 1 - tanh^2 would be exactly 0 from |v| ~ 19.1 on
        expect = 1.0 / math.cosh(v0) ** 2
        d1 = eval_jet3(parse("tanh(v)", "v"), v0).d1
        assert abs(d1 - expect) <= 1e-14 * expect

    @pytest.mark.parametrize("text,v0,d1,d2", [("ln(v)", 1e-103, 1e103, -1e206), ("sqrt(v)", 1e-124, 5e61, -2.5e185)])
    def test_overflowing_third_derivative_leaves_lower_ones_finite(self, text, v0, d1, d2):
        # F(u)' reads only F' and F(u)'' only F' and F''
        jet = eval_jet3(parse(text, "v"), v0)
        assert jet.d1 == pytest.approx(d1, rel=1e-15)
        assert jet.d2 == pytest.approx(d2, rel=1e-15)
        assert jet.d3 == math.inf

    def test_first_derivative_keeps_the_sign_of_its_rule(self):
        # cos'(0) = -sin(0) = -0.0
        assert repr(eval_jet3(parse("cos(v)", "v"), 0.0).d1) == "-0.0"


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

    def test_sum_too_deep_to_evaluate_raises_domain_error(self):
        # the parser loops over a sum's terms, but each node's closure calls
        # its left child's, so evaluating 1,500 terms recurses 1,500 deep
        e = parse("+".join(["v"] * 1500), "v")
        with pytest.raises(DomainError, match="expression nested too deeply to evaluate"):
            eval_jet3(e, 1.0)

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
        "text,node",
        [("2^2000", "2.0^2000.0"), ("v*(1/0)", "1.0/0.0"), ("v + ln(-1)", "ln(-1.0)")],
    )
    def test_failing_constant_parses_and_fails_at_each_evaluation(self, text, node):
        # only exponents are evaluated when parsing; any other constant that
        # fails is left unfolded, to fail naming itself at evaluation
        e = parse(text, "v")
        for v0 in (0.5, 1.0):
            with pytest.raises(DomainError) as err:
                eval_jet3(e, v0)
            assert f"in '{node}'" in str(err.value)

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
    # each node's text is formatted once, while parsing
    e = parse("exp(-(x/2)^2)/(2*sqrt(pi))", "x")
    expect = eval_jet3(e, 0.5)

    def refuse(node, min_prec):
        raise AssertionError("evaluation formatted a node")

    monkeypatch.setattr(exprlang, "_wrap", refuse)
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


# (text, variable, point) -> repr of (f, d1, d2, d3), recorded from the
# tree-walking evaluator that the compiled closures replaced: the cases above,
# the benchmark's maps (bench/refs.py MAPS) and Gaussian weights (widths 0.5,
# 1.7 and 4.0), and the README's expressions.  repr tells -0.0 from 0.0.  The
# two tanh entries at -0.7 are from tanh's cancellation-free sech^2, which
# moved them in their last bits.  The four negative integer powers at the end
# were recorded from the power rule that wrote out its own quotient of 1 by b^n.
PINNED_JETS = {
    ('v', 'v', -0.7): (-0.7, 1.0, 0.0, 0.0),
    ('v', 'v', 0.4): (0.4, 1.0, 0.0, 0.0),
    ('v', 'v', 1.3): (1.3, 1.0, 0.0, 0.0),
    ('-v^2', 'v', -0.7): (-0.48999999999999994, 1.4, -2.0, -0.0),
    ('-v^2', 'v', 0.4): (-0.16000000000000003, -0.8, -2.0, -0.0),
    ('-v^2', 'v', 1.3): (-1.6900000000000002, -2.6, -2.0, -0.0),
    ('(-v)^2', 'v', -0.7): (0.48999999999999994, -1.4, 2.0, 0.0),
    ('(-v)^2', 'v', 0.4): (0.16000000000000003, 0.8, 2.0, 0.0),
    ('(-v)^2', 'v', 1.3): (1.6900000000000002, 2.6, 2.0, 0.0),
    ('(v^2.0)^3.0', 'v', -0.7): (0.11764899999999995, -1.0084199999999996, 7.202999999999998, -41.15999999999999),
    ('(v^2.0)^3.0', 'v', 0.4): (0.004096000000000002, 0.06144000000000003, 0.7680000000000002, 7.6800000000000015),
    ('(v^2.0)^3.0', 'v', 1.3): (4.826809000000002, 22.277580000000007, 85.68300000000002, 263.64000000000004),
    ('1 + 2*v - 3/(v + 4)', 'v', -0.7): (-1.309090909090909, 2.275482093663912, -0.1669588446447951, 0.15178076785890465),
    ('1 + 2*v - 3/(v + 4)', 'v', 0.4): (1.1181818181818182, 2.1549586776859506, -0.0704357625845229, 0.048024383580356524),
    ('1 + 2*v - 3/(v + 4)', 'v', 1.3): (3.0339622641509436, 2.106799572801709, -0.04030172558555049, 0.02281229750125499),
    ('exp(2*v)', 'v', -0.7): (0.2465969639416065, 0.493193927883213, 0.986387855766426, 1.9727757115328521),
    ('exp(2*v)', 'v', 0.4): (2.225540928492468, 4.451081856984936, 8.902163713969871, 17.804327427939743),
    ('exp(2*v)', 'v', 1.3): (13.463738035001692, 26.927476070003383, 53.854952140006766, 107.70990428001353),
    ('sin(cos(tanh(v)))', 'v', -0.7): (0.7330950216614256, 0.24531178332327647, -0.024334001158007643, -0.9842447376937871),
    ('sin(cos(tanh(v)))', 'v', 0.4): (0.8008322371149916, -0.19004739251341748, -0.34341544375014876, 0.967509644337198),
    ('sin(cos(tanh(v)))', 'v', 1.3): (0.6060860843833463, -0.1554074251283258, 0.21037655329761276, -0.08359903598179043),
    ('exp(-(v/2)^2)/(2*sqrt(pi))', 'v', -0.7): (0.24957092803615244, 0.08734982481265335, -0.09421302533364756, -0.12032438367943002),
    ('exp(-(v/2)^2)/(2*sqrt(pi))', 'v', 0.4): (0.2710336967762158, -0.05420673935524316, -0.12467550051705927, 0.07914183945865501),
    ('exp(-(v/2)^2)/(2*sqrt(pi))', 'v', 1.3): (0.1848866908416275, -0.12017634904705789, -0.014328718540226116, 0.12949001609820487),
    ('v + 0.1*sin(v)', 'v', -0.7): (-0.7644217687237691, 1.076484218728449, 0.0644217687237691, -0.07648421872844885),
    ('v + 0.1*sin(v)', 'v', 0.4): (0.4389418342308651, 1.0921060994002885, -0.03894183423086506, -0.09210609940028851),
    ('v + 0.1*sin(v)', 'v', 1.3): (1.3963558185417193, 1.0267498828624588, -0.0963558185417193, -0.026749882862458732),
    ('2^3^2 + v', 'v', -0.7): (511.3, 1.0, 0.0, 0.0),
    ('2^3^2 + v', 'v', 0.4): (512.4, 1.0, 0.0, 0.0),
    ('2^3^2 + v', 'v', 1.3): (513.3, 1.0, 0.0, 0.0),
    ('1e-05*v + 2.5E3', 'v', -0.7): (2499.999993, 1e-05, 0.0, 0.0),
    ('1e-05*v + 2.5E3', 'v', 0.4): (2500.000004, 1e-05, 0.0, 0.0),
    ('1e-05*v + 2.5E3', 'v', 1.3): (2500.000013, 1e-05, 0.0, 0.0),
    ('2*v + tanh(v)', 'v', -0.7): (-2.0043677771171637, 2.6347395899824586, 0.7672323100919167, 0.121592277383237),
    ('2*v + tanh(v)', 'v', 0.4): (1.1799489622552248, 2.855638786081178, -0.6501981376737277, -0.9701512491541173),
    ('2*v + tanh(v)', 'v', 1.3): (3.4617231593133067, 2.257433196703094, -0.4436722951502281, 0.6321016822237328),
    ('exp(v)', 'v', -0.7): (0.4965853037914095, 0.4965853037914095, 0.4965853037914095, 0.4965853037914095),
    ('exp(v)', 'v', 0.4): (1.4918246976412703, 1.4918246976412703, 1.4918246976412703, 1.4918246976412703),
    ('exp(v)', 'v', 1.3): (3.6692966676192444, 3.6692966676192444, 3.6692966676192444, 3.6692966676192444),
    ('v + 0.5*sin(v)', 'v', -0.7): (-1.0221088436188455, 1.3824210936422443, 0.3221088436188455, -0.38242109364224425),
    ('v + 0.5*sin(v)', 'v', 0.4): (0.5947091711543253, 1.4605304970014426, -0.19470917115432526, -0.46053049700144255),
    ('v + 0.5*sin(v)', 'v', 1.3): (1.7817790927085966, 1.1337494143122937, -0.4817790927085965, -0.13374941431229367),
    ('v + sqrt(1 + v^2)', 'v', -0.7): (0.5206555615733703, 0.4265376556366717, 0.549820080885262, 0.7749142079590945),
    ('v + sqrt(1 + v^2)', 'v', 0.4): (1.477032961426901, 1.3713906763541037, 0.8004109404183268, -0.8280113176741313),
    ('v + sqrt(1 + v^2)', 'v', 1.3): (2.9401219466856725, 1.7926239891046, 0.22665827540880762, -0.3286123695518026),
    ('exp(-(x/0.5)^2)/(0.5*sqrt(pi))', 'x', -0.7): (0.15894170767727792, 0.8900735629927563, 3.7128782913412115, 6.550941423626679),
    ('exp(-(x/0.5)^2)/(0.5*sqrt(pi))', 'x', 0.4): (0.594985786257469, -1.9039545160239009, 1.3327681612167315, 26.19841414048887),
    ('exp(-(x/0.5)^2)/(0.5*sqrt(pi))', 'x', 1.3): (0.0013080500497232809, -0.01360372051712212, 0.1310142929802838, -1.1448891187209982),
    ('exp(-(x/1.7)^2)/(1.7*sqrt(pi))', 'x', -0.7): (0.28011827144015633, 0.1356974325315636, -0.1281176945799736, -0.2498804507052656),
    ('exp(-(x/1.7)^2)/(1.7*sqrt(pi))', 'x', 0.4): (0.3140018140735797, -0.0869209173906103, -0.19324113987358862, 0.17379812507311837),
    ('exp(-(x/1.7)^2)/(1.7*sqrt(pi))', 'x', 1.3): (0.18493177966268448, -0.16637461146123866, 0.021699110890606076, 0.21075458738040792),
    ('exp(-(x/4.0)^2)/(4.0*sqrt(pi))', 'x', -0.7): (0.13679329282610492, 0.011969413122284181, -0.01605183795506325, -0.004396889101639079),
    ('exp(-(x/4.0)^2)/(4.0*sqrt(pi))', 'x', 0.4): (0.13964395084861714, -0.006982197542430857, -0.0171063839789556, 0.0026008685845554944),
    ('exp(-(x/4.0)^2)/(4.0*sqrt(pi))', 'x', 1.3): (0.1269090863928532, -0.020622726538838645, -0.01251244273654537, 0.007188953579398284),
    ('exp(-(x/2)^2)/(2*sqrt(pi))', 'x', -0.7): (0.24957092803615244, 0.08734982481265335, -0.09421302533364756, -0.12032438367943002),
    ('exp(-(x/2)^2)/(2*sqrt(pi))', 'x', 0.4): (0.2710336967762158, -0.05420673935524316, -0.12467550051705927, 0.07914183945865501),
    ('exp(-(x/2)^2)/(2*sqrt(pi))', 'x', 1.3): (0.1848866908416275, -0.12017634904705789, -0.014328718540226116, 0.12949001609820487),
    ('v^-2 + 1', 'v', -0.7): (3.0408163265306127, 5.830903790087465, 24.989587671803424, 142.7976438388767),
    ('v^-2 + 1', 'v', 0.4): (7.249999999999999, -31.249999999999993, 234.37499999999991, -2343.7499999999986),
    ('v^-2 + 1', 'v', 1.3): (1.5917159763313609, -0.9103322712790167, 2.100766779874654, -6.463897784229704),
    ('(1 + v^2)^-3', 'v', -0.7): (0.30230212134467616, 0.8521267849984161, 1.9853001798141439, 1.3203532004840186),
    ('(1 + v^2)^-3', 'v', 0.4): (0.6406576735413504, -1.3254986349131388, 0.34280137109822645, 14.81532362447503),
    ('(1 + v^2)^-3', 'v', 1.3): (0.05137397381129484, -0.14896542592122666, 0.46133702108289526, -1.454225022743667),
    ('(v + 2)^-5', 'v', -0.7): (0.26932907434290426, -1.0358810551650162, 4.780989485376996, -25.743789536645362),
    ('(v + 2)^-5', 'v', 0.4): (0.012558674125514403, -0.026163904428155006, 0.0654097610703875, -0.19077846978863006),
    ('(v + 2)^-5', 'v', 1.3): (0.0025552317821364414, -0.0038715633062673355, 0.007039206011395154, -0.014931649115080626),
    ('2^-3*v', 'v', -0.7): (-0.0875, 0.125, 0.0, 0.0),
    ('2^-3*v', 'v', 0.4): (0.05, 0.125, 0.0, 0.0),
    ('2^-3*v', 'v', 1.3): (0.1625, 0.125, 0.0, 0.0),
}


@pytest.mark.parametrize("text,variable,point", list(PINNED_JETS))
def test_jets_keep_their_bits(text, variable, point):
    jet = eval_jet3(parse(text, variable), point)
    assert repr(tuple(jet)) == repr(PINNED_JETS[text, variable, point])


@pytest.mark.parametrize("text,variable,point", list(PINNED_JETS))
def test_order_1_jets_are_the_pinned_value_and_first_derivative(text, variable, point):
    jet = eval_jet1(parse(text, variable), point)
    assert repr(jet) == repr(PINNED_JETS[text, variable, point][:2])


# 0.0 is a critical point of v^2, cos(v), ..., where u' = 0 but u'' is not
@given(random_expression(), st.sampled_from([0.0, -0.0, 0.4, -0.7, 1.3]) | st.floats(-30.0, 30.0))
@settings(max_examples=300, deadline=None)
def test_order_1_jet_is_the_order_3_jets_first_two_terms(text, v):
    e = parse(text, "v")
    try:
        jet = eval_jet3(e, v)
    except DomainError:
        return
    assert repr(eval_jet1(e, v)) == repr((jet.f, jet.d1))


@pytest.mark.parametrize(
    "text,v0,message",
    [
        ("ln(v)", -1.0, "ln of non-positive value in 'ln(v)'"),
        ("ln(v^2 - 1)", 0.0, "ln of non-positive value in 'ln(v^2.0 - 1.0)'"),  # u' = 0 there
        ("sqrt(v - 2)", 1.0, "sqrt of non-positive value in 'sqrt(v - 2.0)'"),
        ("1/(v - 1)", 1.0, "division by zero in '1.0/(v - 1.0)'"),
        ("v^-2", 0.0, "division by zero in 'v^-2.0'"),
        ("v^0.5", -1.0, "non-integer power of non-positive base in 'v^0.5'"),
        ("exp(1000*v)", 1.0, "overflow in 'exp(1000.0*v)'"),
        ("2^2000", 1.0, "overflow in '2.0^2000.0'"),
        ("v + sin(1e200*1e200)", 1.0, "math domain error in 'sin(1e+200*1e+200)'"),
        ("v^(0*(1e200*1e200))", 1.0, "cannot convert float NaN to integer in 'v^nan'"),
        ("+".join(["v"] * 1500), 1.0, "expression nested too deeply to evaluate"),
    ],
)
def test_both_orders_raise_the_same_domain_error(text, v0, message):
    e = parse(text, "v")
    for evaluate in (eval_jet1, eval_jet3):
        with pytest.raises(DomainError) as err:
            evaluate(e, v0)
        assert str(err.value) == message


def test_order_1_never_computes_the_terms_that_overflow_at_order_3():
    # ln''' = 2/v^3 divides by v^3, which underflows to 0 at 1e-110
    e = parse("ln(v)", "v")
    with pytest.raises(DomainError, match=r"^overflow in 'ln\(v\)'$"):
        eval_jet3(e, 1e-110)
    assert eval_jet1(e, 1e-110) == (math.log(1e-110), 1.0 / 1e-110)


def test_expression_and_its_closures_are_freed_together():
    # no cache outlives an Expression: reference counting alone frees its
    # closures at both orders, every one of them, with it
    def closures(f):
        found = [f]
        for cell in f.__closure__:
            if getattr(cell.cell_contents, "__closure__", None) is not None:
                found += closures(cell.cell_contents)
        return found

    gc.disable()
    try:
        e = parse("exp(-(x/1.7)^2)/(1.7*sqrt(pi)) + ln(x^2 + 1)*x^-0.5", "x")
        order1 = [weakref.ref(f) for f in closures(e.taylor1)]
        order3 = [weakref.ref(f) for f in closures(e.taylor)]
        assert len(order1) > 10 and len(order3) > 10
        refs = [weakref.ref(e)] + order1 + order3
        del e
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
