import functools
import itertools
import math
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab.core import Regulator, sigma_tau_factors
from regulab.errors import NonFiniteResult, SingularRegulator, TooFewSamples
from regulab.flanagan import ConformalMap, delta_flanagan
from regulab.numerics import LimitKind
from regulab.regulator_lab import (
    AmbiguityExpr,
    LimitPath,
    ratio_239,
    scan_path,
)
from regulab.static_well import WellConfig, r_integral_closed
from regulab.time_step import d_term_value

# the benchmark's exact path limits (bench/refs.py) and limit-lab's schedule
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))
import refs  # noqa: E402
import workloads  # noqa: E402

SCHED = [0.2 * 2.0**-j for j in range(8)]


class TestSigmaTauFactors:
    def test_cutoff_only(self):
        # f1 = f2 = 0.3i up to sign: sigma_tau = 0.09
        g, h, b, a, t, n1, n2 = sigma_tau_factors(0.0, 0.0, 0.3)
        assert (g, h, b, a) == (0.0, 0.0, 1.0, 0.0)
        assert t == n1 == n2 == math.ldexp(0.3, 1021)

    def test_null_split(self):
        with pytest.raises(SingularRegulator):
            sigma_tau_factors(0.2, 0.2, 0.0)

    def test_hand_checked_value(self):
        # sigma_tau = 0.0325 + 0.01i = (0.1 + 0.05i)(0.3 - 0.05i)
        g, h, b, a, t, n1, n2 = sigma_tau_factors(0.1, 0.2, 0.05)
        assert abs(n2 / n1 - abs(0.3 - 0.05j) / abs(0.1 + 0.05j)) < 1e-15
        for got, want in ((g, 0.2 / abs(0.3 - 0.05j)), (h, 0.1 / abs(0.3 - 0.05j)),
                          (b, 0.05 / abs(0.1 + 0.05j)), (a, 0.03 / abs(0.1 + 0.05j) ** 2)):
            assert abs(got - want) < 1e-15
        assert b == t / n1
        assert abs(g * g * (a + b * b) - 2j * g * g * h * b * n2 / n1 - 0.04 / complex(0.0325, 0.01)) < 1e-15


class TestRatio:
    def test_space_split_only(self):
        assert ratio_239(Regulator(0.0, 0.5, 0.0)) == 1.0

    def test_vanishing_space_split(self):
        assert ratio_239(Regulator(0.1, 0.0, 0.2)) == 0.0

    def test_null_split_singular(self):
        with pytest.raises(SingularRegulator):
            ratio_239(Regulator(0.3, 0.3, 0.0))

    @given(st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_degree_zero_homogeneity(self, c):
        base = Regulator(0.03, 0.07, 0.2)
        scaled = Regulator(c * base.eps0, c * base.eps1, c * base.tau)
        assert abs(ratio_239(scaled) - ratio_239(base)) <= 1e-15 * abs(ratio_239(base)) * 4


# (lam, eps0, eps1, tau, repr of ratio_239, r_integral_closed, d_term_value),
# "SingularRegulator" where the form raises it; the -tau rows are
# d_term_value's alone.  Recorded from the forms on the factors of sigma_tau
# (core.sigma_tau_factors), whose bits lean on math.hypot; each value is
# within the bound of _agrees of the exact rational.  Kept a literal, so a
# stdlib script can check it with ast.literal_eval where pytest is missing.
CLOSED_FORM_PINS = [
    (1.0, 0.0, 0.0, 0.0, "SingularRegulator", "SingularRegulator", "SingularRegulator"),
    (1.0, 0.1, 0.1, 0.0, "SingularRegulator", "SingularRegulator", "SingularRegulator"),
    (1.7, 1.0, 1.0, 0.0, "SingularRegulator", "SingularRegulator", "SingularRegulator"),
    (1.0, 1e-300, 1e-300, 0.0, "SingularRegulator", "SingularRegulator", "SingularRegulator"),
    (1.0, 1e-200, 0.0, 1e-200, "-0j", "0.0", "0.03978873577297384"),
    (1.0, 0.0, 1e-170, 1e-170, "(0.5000000000000002-0j)", "0.03978873577297386", "-0.0"),
    (1.0, 0.01, 0.0, 0.01, "-0j", "0.0", "0.03978873577297386"),
    (1.0, 0.3, 0.0, 0.01, "(-0-0j)", "-0.0", "0.07948915026787226"),
    (1.0, 0.01, 0.0, 0.3, "-0j", "0.0", "8.832127807541364e-05"),
    (1.7, 2.0, 0.0, 1.0, "(-0-0j)", "-0.0", "0.1082253613024888"),
    (1.0, 0.1, 0.0, 0.0, "(-0-0j)", "-0.0", "0.07957747154594767"),
    (1.0, 0.0, 0.0, 0.5, "-0j", "0.0", "0.0"),
    (1.0, 1e-150, 0.0, 1e-150, "-0j", "0.0", "0.03978873577297386"),
    (0.3, 0.0025, 0.0, 0.05, "-0j", "0.0", "5.9534267989487036e-05"),
    (1.0, 0.03, 0.05, 0.2, "(0.055479685899624445-0.01600375554796859j)", "0.004414933126055479", "0.001467116238812282"),
    (1.0, 0.1, 0.2, 0.05, "(1.1243243243243244-0.34594594594594597j)", "0.08947088692733576", "-0.018926533773090257"),
    (1.7, 2.0, 0.3, 1.0, "(-0.010703732615119275-0.014713034522500725j)", "-0.0014480191619456466", "0.10858761489351854"),
    (1.0, 0.0, 0.5, 0.0, "(1-0j)", "0.07957747154594767", "-0.0"),
    (1.0, 0.001, 0.002, 0.05, "(0.0015955355601880417-6.374492849332967e-05j)", "0.00012696868564141157", "3.1666081506852243e-05"),
    (1.0, 0.0025, 0.0025, 0.05, "(0.0024752475247524753-0.00024752475247524753j)", "0.0001969739394701675", "0.0001969739394701675"),
    (1.0, 1e-150, 1e-150, 1e-150, "(0.19999999999999998-0.39999999999999997j)", "0.015915494309189534", "0.015915494309189534"),
    (2.5, 0.3, 1.0, 1e-09, "(1.098901098901099-7.245501750996257e-10j)", "0.21861942732403208", "-0.019675748459162888"),
    (1.0, 1.0, 2.0, 0.01, "(1.333229639669782-0.008887901334420733j)", "0.10609504371503614", "-0.02652199273697018"),
    (1.0, 0.0, 0.01, 2.0, "(2.4999375015624612e-05-0j)", "1.989387053972343e-06", "0.0"),
    (0.001, 0.5, 0.49, 0.0001, "(-24.250075500025723-0.24495050500076976j)", "-0.0019297596930903799", "0.0020093331857546325"),
    (1.0, 0.03, 0.05, -0.2, None, None, "0.001467116238812282"),
    (1.0, 0.1, 0.0, -0.07, None, None, "0.053407699024125954"),
    (1.0, 0.01, 0.0, -0.01, None, None, "0.03978873577297386"),
    (1.7, 0.3, 0.3, -0.0, None, None, "SingularRegulator"),
    (1.0, 2.0, 0.01, -1.0, None, None, "0.06366223186531327"),
]


def _repr_or_singular(fn, *args):
    try:
        return repr(fn(*args))
    except SingularRegulator:
        return "SingularRegulator"


_INF = Fraction(2) ** 1024 - Fraction(2) ** 970  # the least magnitude that rounds to inf


def _exact_terms(lam, eps0, eps1, tau):
    """The exact terms, as rationals of the floats given and of the float
    lam/4pi, of each component: with X = eps1^2 - eps0^2 and
    |sigma_tau|^2 = |f1|^2 |f2|^2, Re ratio239 = eps1^2 (X + tau^2)/|sigma_tau|^2,
    Im ratio239 = -2 eps1^2 eps0 tau/|sigma_tau|^2, r = (lam/4pi) Re ratio239
    and d = -(lam/4pi) eps0^2 (X - tau^2)/|sigma_tau|^2."""
    e0, e1, t = Fraction(eps0), Fraction(eps1), Fraction(tau)
    c = Fraction(lam / (4.0 * math.pi))
    x, t2 = e1 * e1 - e0 * e0, t * t
    m = ((e1 - e0) ** 2 + t2) * ((e1 + e0) ** 2 + t2)
    re = (e1 * e1 * x / m, e1 * e1 * t2 / m)
    return {"re": re, "im": (-2 * e1 * e1 * e0 * t / m,), "r": (c * re[0], c * re[1]),
            "d": (-c * e0 * e0 * x / m, c * e0 * e0 * t2 / m)}


def _agrees(got, terms):
    """got is the sum of the exact terms to 8*2^-52*sum|terms| + 64*2^-1074,
    or got is NonFiniteResult and that sum is not representable."""
    exact = sum(terms)
    bound = 8 * Fraction(2) ** -52 * sum(abs(v) for v in terms) + 64 * Fraction(2) ** -1074
    if got is NonFiniteResult:
        return abs(exact) + bound >= _INF
    return abs(exact) < _INF and abs(Fraction(got) - exact) <= bound


def _closed_forms(eps0, eps1, tau):
    """Each component's value at lam = 1, or the class of the error its form raised."""
    def call(fn, *args):
        try:
            return fn(*args)
        except (NonFiniteResult, SingularRegulator) as exc:
            return type(exc)

    reg = Regulator(eps0, eps1, tau)
    z = call(ratio_239, reg)
    re, im = (z, z) if isinstance(z, type) else (z.real, z.imag)
    return {"re": re, "im": im,
            "r": call(r_integral_closed, WellConfig(1.0, 1.0), reg), "d": call(d_term_value, 1.0, eps0, eps1, tau)}


_COMPONENT = st.one_of(
    st.sampled_from((0.0, 5e-324, 1e-320, 2.2e-308, 1e-300, 1e-170, 1e-150, 1e-9, 0.3, 1.0, 2.0, 1e150, 1e300,
                     9e307, 1.7e308)),
    st.floats(0.0, sys.float_info.max),
)


@st.composite
def _regulators(draw):
    """(eps0, eps1, tau) among all finite floats >= 0, subnormals included,
    with eps1 = eps0 on the null split and eps1 = eps0 (1 - 2^-j) beside it."""
    eps0, eps1, tau = draw(_COMPONENT), draw(_COMPONENT), draw(_COMPONENT)
    split = draw(st.sampled_from(("free", "free", "free", "null", "beside")))
    if split == "null":
        eps1 = eps0
    elif split == "beside":
        eps1 = eps0 - math.ldexp(eps0, -draw(st.integers(1, 60)))
    return eps0, eps1, tau


class TestClosedFormsOfSigmaTau:
    @pytest.mark.parametrize("lam,eps0,eps1,tau,ratio,r,d", CLOSED_FORM_PINS)
    def test_pinned_bits(self, lam, eps0, eps1, tau, ratio, r, d):
        assert _repr_or_singular(d_term_value, lam, eps0, eps1, tau) == d
        if ratio is not None:
            reg = Regulator(eps0, eps1, tau)
            assert _repr_or_singular(ratio_239, reg) == ratio
            assert _repr_or_singular(r_integral_closed, WellConfig(lam, 1.0), reg) == r
        if d != "SingularRegulator":
            terms = _exact_terms(lam, eps0, eps1, tau)
            assert _agrees(float(d), terms["d"])
            if ratio is not None:
                z = complex(ratio)
                assert _agrees(z.real, terms["re"]) and _agrees(z.imag, terms["im"]) and _agrees(float(r), terms["r"])

    @given(_regulators())
    @settings(max_examples=800, deadline=None, derandomize=True)
    def test_closed_forms_hold_to_exact_rationals(self, regulator):
        eps0, eps1, tau = regulator
        got = _closed_forms(eps0, eps1, tau)
        if eps0 == eps1 and tau == 0.0:  # f1 = 0
            assert got == dict.fromkeys(got, SingularRegulator)
            return
        terms = _exact_terms(1.0, eps0, eps1, tau)
        if got["re"] is NonFiniteResult:  # ratio_239 raised for its imaginary part; r reads Re
            del got["re"]
        else:
            assert repr(got["r"]) == repr(1.0 / (4.0 * math.pi) * got["re"])
        for name, value in got.items():
            assert _agrees(value, terms[name]), (name, value, float(sum(terms[name])))

    @pytest.mark.parametrize("eps,tau", [(1.0, 1e-170), (1.0, 1e-310), (1.7e308, 5e-324)])
    def test_null_split_at_small_tau(self, eps, tau):
        # A = 0 and b = 1 on the null split, so r = d = lam/(16 pi) at any
        # tau > 0, also where scaling eps into [2^1019, 2^1020) sends tau to 0
        reg = Regulator(eps, eps, tau)
        for value in (r_integral_closed(WellConfig(1.0, 1.0), reg), d_term_value(1.0, eps, eps, tau)):
            assert _agrees(value, (Fraction(1.0 / (4.0 * math.pi)) / 4,))

    def test_value_that_overflows_raises(self):
        # Im ratio239 = -1/(2 tau) on the null split
        with pytest.raises(NonFiniteResult,
                           match=r"ratio_239 at reg = Regulator\(eps0=1.0, eps1=1.0, tau=1e-310\) is not finite"):
            ratio_239(Regulator(1.0, 1.0, 1e-310))
        # eps1 - eps0 = 2^-52 makes A = 2^53, so (lam/4pi) A/4 overflows at lam = 1e300
        near = math.nextafter(1.0, 2.0)
        with pytest.raises(NonFiniteResult, match=r"r_integral_closed at cfg = WellConfig\(lam=1e\+300, a=1.0\), "
                           r"reg = Regulator\(eps0=1.0, eps1=1.0000000000000002, tau=0.0\) is not finite"):
            r_integral_closed(WellConfig(1e300, 1.0), Regulator(1.0, near, 0.0))
        with pytest.raises(NonFiniteResult, match=r"d_term_value at lam = 1e\+300, eps0 = 1.0000000000000002, "
                           r"eps1 = 1.0, tau = 0.0 is not finite"):
            d_term_value(1e300, near, 1.0, 0.0)

    @pytest.mark.parametrize("lam", [1.0, 2.5])
    def test_the_two_gaps_differ_by_a_constant(self, lam):
        # r + d = (lam/4pi) Re[(eps1^2 - eps0^2 + i eps0 tau)/sigma_tau]
        #       = (lam/4pi) (1 - Re[tau (tau + i eps0)/sigma_tau]),
        # with sigma_tau = eps1^2 - (eps0 - i tau)^2 written out here, not
        # read from regulab.core; lam/4pi, the sum at tau = 0, is the scale
        scale = lam / (4.0 * math.pi)
        grid = (0.0, 0.01, 0.3, 1.0, 2.0)
        checked = 0
        for eps0 in grid:
            for eps1 in grid:
                for tau in (0.0, 1e-9, 0.01, 0.5, 2.0):
                    sigma = eps1**2 - (eps0 - 1j * tau) ** 2
                    if sigma == 0:
                        continue
                    total = r_integral_closed(WellConfig(lam, 1.0), Regulator(eps0, eps1, tau))
                    total += d_term_value(lam, eps0, eps1, tau)
                    expected = scale if tau == 0.0 else scale * (1.0 - (tau * (tau + 1j * eps0) / sigma).real)
                    assert abs(total - expected) <= 1e-13 * scale, (eps0, eps1, tau)
                    checked += 1
        assert checked == 120


class TestLimitPath:
    def test_power_law_evaluation(self):
        path = LimitPath(2, 1, 3, c0=2.0, c1=0.5, ctau=1.0)
        reg = path.regulator_at(0.1)
        assert reg.eps0 == pytest.approx(2.0 * 0.01)
        assert reg.eps1 == pytest.approx(0.05)
        assert reg.tau == pytest.approx(1e-3)

    def test_zero_coefficient_pins_component(self):
        path = LimitPath(1, 1, 1, ctau=0.0)
        assert path.regulator_at(0.37).tau == 0.0

    @pytest.mark.parametrize("field,value", [("p0", math.nan), ("ptau", -1.0), ("c1", math.inf), ("ctau", -0.5)])
    def test_field_not_finite_or_negative_rejected(self, field, value):
        fields = {"p0": 1.0, "p1": 1.0, "ptau": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            LimitPath(**fields)

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LimitPath(1, 1, 1, c0=0.0, c1=0.0, ctau=0.0)

    def test_s_out_of_range(self):
        with pytest.raises(ValueError):
            LimitPath(1, 1, 1).regulator_at(0.0)


class TestExpressions:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_strength_is_refused(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            AmbiguityExpr.d_term616(lam)
        with pytest.raises(ValueError, match="lam must be finite"):
            AmbiguityExpr.r_static317(lam)


class TestScan:
    def test_regime_fast_tail_and_time(self):
        res = scan_path(AmbiguityExpr.ratio239(), LimitPath(2, 1, 2), SCHED)
        assert res.outcome.kind is LimitKind.FINITE
        assert abs(res.outcome.value - 1.0) < 1e-6
        assert len(res.samples) == len(SCHED)

    def test_regime_fast_space_split(self):
        res = scan_path(AmbiguityExpr.ratio239(), LimitPath(1, 2, 1), SCHED)
        assert res.outcome.kind is LimitKind.FINITE
        assert abs(res.outcome.value) < 1e-6

    def test_regime_null_split_divergent(self):
        res = scan_path(AmbiguityExpr.ratio239(), LimitPath(1, 1, 1, ctau=0.0), SCHED)
        assert res.outcome.kind is LimitKind.DIVERGENT
        assert res.outcome.confidence == 0.0
        assert res.singular_s == SCHED[0]

    def test_both_splits_fast_gives_zero(self):
        res = scan_path(AmbiguityExpr.ratio239(), LimitPath(2, 2, 1), SCHED)
        assert res.outcome.kind is LimitKind.FINITE
        assert abs(res.outcome.value) < 1e-6

    def test_gap_closes_on_recommended_path(self):
        res = scan_path(AmbiguityExpr.d_term616(1.0), LimitPath(2, 2, 1), SCHED)
        assert res.outcome.kind is LimitKind.FINITE
        assert abs(res.outcome.value) < 1e-6

    def test_static_remainder_null_direction(self):
        res = scan_path(
            AmbiguityExpr.r_static317(1.0), LimitPath(1, 1, 1, ctau=0.0), SCHED
        )
        assert res.outcome.kind is LimitKind.DIVERGENT
        assert res.outcome.confidence == 0.0

    def test_outcome_depends_only_on_exponent_ordering(self):
        # a wide coefficient spread pushes the asymptotic regime to smaller s,
        # so the schedule goes deeper than usual here
        deep = [0.2 * 2.0**-j for j in range(10)]
        for expr in (AmbiguityExpr.ratio239(), AmbiguityExpr.d_term616(2.0)):
            kinds = set()
            for c in ((1.0, 1.0, 1.0), (0.3, 2.0, 5.0), (7.0, 0.2, 1.3)):
                res = scan_path(
                    expr, LimitPath(2, 1, 2, c0=c[0], c1=c[1], ctau=c[2]), deep
                )
                kinds.add(res.outcome.kind)
            assert kinds == {LimitKind.FINITE}

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            scan_path(AmbiguityExpr.ratio239(), LimitPath(2, 1, 2), [0.2, 0.1, 0.05])

    @pytest.mark.parametrize(
        "path,schedule",
        [
            # singular at the first sample, which used to end the scan with a verdict
            (LimitPath(1, 1, 1, 1, 1, 0), [0.1, 2, 0.05, 0.025]),
            (LimitPath(2, 1, 2), [0.1, 0.2, 0.05, 0.025]),
            (LimitPath(2, 1, 2), [0.2, 0.1, 0.1, 0.05]),
            (LimitPath(2, 1, 2), [0.2, 0.1, 0.05, 0.0]),
        ],
        ids=["above-1-singular-path", "rising", "repeated", "zero"],
    )
    def test_invalid_schedule_raises_before_any_sample(self, path, schedule):
        calls = []

        def counted(reg):
            calls.append(reg)
            return ratio_239(reg)

        with pytest.raises(ValueError, match=r"need s strictly decreasing in \(0, 1\]"):
            scan_path(AmbiguityExpr(counted), path, schedule)
        assert calls == []


class TestFlanaganDeltaExpr:
    def test_order_of_limits_through_paths(self):
        V = ConformalMap.from_text("exp(v)")
        expr = AmbiguityExpr.flanagan_delta(V, 0.0)
        # cutoff shrinking faster than the split squared (the split enters the
        # nearby denominators quadratically) recovers the third-derivative
        # limit with no leftover imaginary part
        tau_first_gone = scan_path(expr, LimitPath(0, 1, 3, c0=0.0), SCHED)
        assert tau_first_gone.outcome.kind is LimitKind.FINITE
        assert abs(tau_first_gone.outcome.value - delta_flanagan(V, 0.0)) < 1e-7
        # split shrinking faster than the cutoff squared: V'(0) = 1 sends the
        # limit to zero (a leftover -V'' delta/(4 pi tau^2) survives otherwise)
        split_first = scan_path(expr, LimitPath(0, 3, 1, c0=0.0), SCHED)
        assert split_first.outcome.kind is LimitKind.FINITE
        assert abs(split_first.outcome.value) < 1e-9
        # the two orders land on different numbers
        assert (
            abs(tau_first_gone.outcome.value - split_first.outcome.value)
            > 1e-3
        )


EXPRESSIONS = {
    "ratio239": AmbiguityExpr.ratio239(),
    "rstatic317": AmbiguityExpr.r_static317(1.0),
    "dterm616": AmbiguityExpr.d_term616(1.0),
}


@functools.cache
def divergent_paths() -> tuple:
    """(expression id, path) for every power path with exponents in
    {0.5, 1, 1.5, 2, 3} and coefficients in {0, 0.5, 1, 2}, not all 0, on
    which the exact s -> 0 limit at lam = 1 diverges."""
    exponents = itertools.product((0.5, 1.0, 1.5, 2.0, 3.0), repeat=3)
    coefficients = [c for c in itertools.product((0.0, 0.5, 1.0, 2.0), repeat=3) if any(c)]
    return tuple(
        (expr_id, p + c)
        for p in exponents
        for c in coefficients
        for expr_id in EXPRESSIONS
        if refs.path_limit(expr_id, p + c, 1.0)[0] == "divergent"
    )


@pytest.mark.parametrize("schedule", [workloads.SCHEDULE, SCHED], ids=["limit-lab", "halving"])
def test_divergent_limit_is_reported_divergent(schedule):
    assert len(divergent_paths()) == 315
    for expr_id, path in divergent_paths():
        res = scan_path(EXPRESSIONS[expr_id], LimitPath(*path), schedule)
        assert res.outcome.kind is LimitKind.DIVERGENT, (expr_id, path)
