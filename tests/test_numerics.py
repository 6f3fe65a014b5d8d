import cmath
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab.core import Regulator
from regulab.errors import InvalidCutoff, ToleranceNotMet, TooFewSamples
from regulab.numerics import (
    LimitKind,
    QuadratureResult,
    QuadratureSpec,
    classify_limit,
    integrate_halfline,
    integrate_interval,
    integrate_realline,
)
from regulab.static_well import WellConfig, r_integral_closed, r_omega, s_omega
from regulab.time_step import StepConfig, _folded_pointsplit, d_term, d_term_quadrature

SPEC = QuadratureSpec()


class TestHalfline:
    def test_constant_integrand(self):
        res = integrate_halfline(lambda w: 1.0, 1.0, SPEC)
        assert abs(res.value - 1.0) < 1e-10
        assert res.error_estimate <= max(SPEC.abs_tol, SPEC.rel_tol * abs(res.value)) * 1.01 + 1e-20
        assert res.evaluations > 0

    def test_linear_integrand(self):
        # integral of w e^(-w/2) = 1/tau^2 = 4
        res = integrate_halfline(lambda w: w, 0.5, SPEC)
        assert abs(res.value - 4.0) < 1e-9

    def test_oscillatory_complex_integrand(self):
        # integral of w e^(-i 0.3 w) e^(-0.1 w) = 1/(0.1 + 0.3i)^2 = -8 - 6i
        res = integrate_halfline(lambda w: w * cmath.exp(-0.3j * w), 0.1, SPEC)
        assert abs(res.value - complex(-8.0, -6.0)) < 1e-7

    def test_invalid_cutoff(self):
        with pytest.raises(InvalidCutoff):
            integrate_halfline(lambda w: 1.0, 0.0, SPEC)
        with pytest.raises(InvalidCutoff):
            integrate_halfline(lambda w: 1.0, -1.0, SPEC)

    def test_budget_exhaustion_raises(self):
        tight = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=1)
        with pytest.raises(ToleranceNotMet) as err:
            integrate_halfline(lambda w: math.cos(50.0 * w) / (1.0 + w), 0.01, tight)
        assert err.value.error_estimate > 0
        # the budget stops refinement only once each of the 17 initial panels
        # (up to the cut at T = 34) has had its guard bisection
        assert "above tolerance" in str(err.value)
        assert err.value.evaluations == 17 * (15 + 30)

    def test_cut_stops_early_when_the_integrand_decays(self):
        # the second panel, [20, 40], leaves a tail bound of 2 e^(-400)
        # e^(-4)/tau, far below the tolerance: the cut is at T = 4, and the
        # peak near 0 takes 4 bisections past the two guards
        res = integrate_halfline(lambda w: math.exp(-w * w), 0.1, SPEC)
        exact = 0.5 * math.sqrt(math.pi) * math.exp(0.0025) * math.erfc(0.05)
        assert abs(res.value - exact) <= res.error_estimate
        assert res.evaluations == 2 * (15 + 30) + 4 * 30

    def test_cut_stops_at_the_cap_when_the_integrand_grows(self):
        # the tail bound of w^10 stays above a tenth of the tolerance up to
        # T = 60, which caps the cut: 30 initial panels, the most any
        # half-line integral lays, and no bisections beyond their guards
        spec = QuadratureSpec(rel_tol=1e-13)
        res = integrate_halfline(lambda w: w**10, 1.0, spec)
        exact = math.factorial(10)
        assert abs(res.value - exact) <= res.error_estimate
        assert res.error_estimate <= spec.rel_tol * exact
        assert res.evaluations == 30 * (15 + 30)

    def test_tail_above_tolerance_at_the_cap_raises_at_once(self):
        # no bisection lowers the tail bound, so the budget is not spent
        with pytest.raises(ToleranceNotMet) as err:
            integrate_halfline(lambda w: w**12, 1.0, QuadratureSpec(rel_tol=1e-14))
        assert "the tail beyond the last panel is bounded by" in str(err.value)
        assert err.value.evaluations == 30 * (15 + 30)

    @pytest.mark.parametrize("spot", [0.3, 0.71])
    @pytest.mark.parametrize("budget", [20, 21, 40])
    def test_budget_exhaustion_names_the_worst_panel(self, spot, budget):
        with pytest.raises(ToleranceNotMet) as err:
            integrate_interval(
                lambda x: 1.0 if x > spot else 0.0, 0.0, 1.0, QuadratureSpec(max_subdivisions=budget)
            )
        found = re.search(r"worst panel \[(\S+), (\S+)\] \(error (\S+)\)", str(err.value))
        assert found, str(err.value)
        a, b, worst = (float(g) for g in found.groups())
        # the jump sits in the named panel or in its sibling: a bisection
        # gives both halves at least half the change in the panel's value
        assert a - (b - a) < spot < b + (b - a)
        assert 0.0 < worst <= float(f"{err.value.error_estimate:.3e}")  # both printed to 4 digits
        assert "above tolerance" in str(err.value)

    def test_budget_below_guard_count_still_converges(self):
        # both integrands are resolved by the guard bisections of their 14
        # initial panels alone, 14 bisections against a budget of 1
        one = QuadratureSpec(max_subdivisions=1)
        res = integrate_halfline(lambda w: 1.0, 0.5, one)
        assert abs(res.value - 2.0) <= res.error_estimate + 1e-14
        res = integrate_realline(lambda k: math.cos(k + 0.7), 0.5, one)
        exact = 2.0 * 0.5 * math.cos(0.7) / (0.5 * 0.5 + 1.0)
        assert abs(res.value - exact) <= res.error_estimate
        assert res.evaluations == 2 * 14 * (15 + 30)

    def test_removable_singularity_at_origin(self):
        # (1 - cos w)/w is finite at 0; bisection toward 0 must resolve it
        def f(w):
            return (1.0 - math.cos(w)) / w if w > 0 else 0.0

        res = integrate_halfline(f, 0.3, SPEC)
        # oracle: integral of (1-cos w)/w e^(-tau w) dw = ln(sqrt(1+tau^-2))
        exact = 0.5 * math.log(1.0 + 1.0 / 0.3**2)
        assert abs(res.value - exact) < 1e-9

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("tau", [1.0, 0.05, 0.01])
    @pytest.mark.parametrize(
        "f,closed",
        [
            (lambda w: w**-0.5, lambda tau: math.sqrt(math.pi / tau)),
            (lambda w: math.log(w), lambda tau: -(0.5772156649015329 + math.log(tau)) / tau),
            (lambda w: w**-0.9, lambda tau: math.gamma(0.1) * tau**-0.1),
        ],
        ids=["w^-0.5", "ln w", "w^-0.9"],
    )
    def test_error_estimate_bounds_true_error_of_singular_integrands(self, f, closed, tau, rel_tol):
        # integrable singularities at 0, which only bisection toward 0 resolves;
        # the Gauss-Kronrod nodes never touch the endpoint
        res = integrate_halfline(f, tau, QuadratureSpec(rel_tol=rel_tol))
        assert abs(res.value - closed(tau)) <= res.error_estimate

    def test_linearity(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            c = rng.uniform(-2, 2, size=3)
            freq = rng.uniform(0.1, 2.0)
            f = lambda w: (c[0] + c[1] * w) * math.cos(freq * w)
            g = lambda w: c[2] * w * math.sin(freq * w)
            a, b = rng.uniform(-3, 3, size=2)
            combined = integrate_halfline(lambda w: a * f(w) + b * g(w), 0.7, SPEC)
            fa = integrate_halfline(f, 0.7, SPEC)
            gb = integrate_halfline(g, 0.7, SPEC)
            tol = (
                abs(a) * fa.error_estimate
                + abs(b) * gb.error_estimate
                + combined.error_estimate
                + 1e-12
            )
            assert abs(combined.value - (a * fa.value + b * gb.value)) <= tol

    def test_error_estimate_bounds_true_error_without_hint(self):
        # integral of cos(omega w), sin(omega w) against e^(-tau w) over
        # [0, inf) is tau/(tau^2 + omega^2), omega/(tau^2 + omega^2); the
        # estimate must cover the true error up to a few rounding units
        spec = QuadratureSpec(rel_tol=1e-9)
        eps = sys.float_info.epsilon
        for omega in (0.5, 3.6, 12.0):
            for tau in (0.05, 0.5):
                den = tau * tau + omega * omega
                for trig, exact in ((math.cos, tau / den), (math.sin, omega / den)):
                    res = integrate_halfline(lambda w: trig(omega * w), tau, spec)
                    err = abs(res.value - exact)
                    assert err <= res.error_estimate + 8.0 * eps * abs(exact), (
                        trig.__name__, omega, tau, err, res.error_estimate
                    )

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-10, 1e-12])
    @pytest.mark.parametrize("density", ["d_term", "static_remainder"])
    def test_error_estimate_bounds_true_error_of_the_closed_forms(self, density, rel_tol):
        # both integrands are bounded and oscillate slowly (their phases turn
        # by eps0 or eps1 per unit omega), so a tail bound sampled near a zero
        # of the oscillation would understate the part beyond the cut
        spec = QuadratureSpec(rel_tol=rel_tol)
        eps = sys.float_info.epsilon
        step, well = StepConfig(1.0, 1.0), WellConfig(1.0, 1.0)
        routes = {
            "d_term": (
                lambda reg: d_term(step, reg),
                lambda reg: d_term_quadrature(step, reg, spec),
            ),
            "static_remainder": (
                lambda reg: r_integral_closed(well, reg),
                lambda reg: integrate_halfline(lambda w: r_omega(well, w, reg), reg.tau, spec),
            ),
        }
        closed, quad = routes[density]
        for s in (0.2, 0.1, 0.05, 0.025, 0.0125):
            for reg in (Regulator(s * s, s * s, s), Regulator(s * s, s, s), Regulator(s, s * s, s)):
                exact = closed(reg)
                res = quad(reg)
                err = abs(res.value - exact)
                assert err <= res.error_estimate + 8.0 * eps * abs(exact), (reg, err, res.error_estimate)

    def test_cutoff_monotonicity(self):
        f = lambda w: 1.0 / (1.0 + w * w)
        values = [
            integrate_halfline(f, tau, SPEC).value for tau in (0.2, 0.5, 1.0, 2.0)
        ]
        assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))

    def test_conjugation(self):
        f = lambda w: w * cmath.exp(-0.4j * w) / (1.0 + w)
        plain = integrate_halfline(f, 0.2, SPEC)
        conj = integrate_halfline(lambda w: f(w).conjugate(), 0.2, SPEC)
        tol = plain.error_estimate + conj.error_estimate + 1e-12
        assert abs(conj.value - plain.value.conjugate()) <= tol


class TestRealline:
    # integrate_realline applies the weight e^(-|k| tau) itself
    def test_two_sided_exponential(self):
        res = integrate_realline(lambda k: 1.0, 1.0, SPEC)
        assert abs(res.value - 2.0) < 1e-9

    def test_odd_integrand(self):
        res = integrate_realline(lambda k: k, 1.0, SPEC)
        assert abs(res.value) < 1e-9

    def test_gaussian(self):
        res = integrate_realline(lambda k: math.exp(-k * k), 1.0, SPEC)
        exact = math.sqrt(math.pi) * math.exp(0.25) * math.erfc(0.5)
        assert abs(res.value - exact) < 1e-9

    def test_error_estimate_bounds_true_error_for_uneven_integrand(self):
        # integral of cos(omega k + phi) e^(-|k| tau) over the line is
        # 2 tau cos(phi)/(tau^2 + omega^2); phi != 0 makes f(k) != f(-k)
        spec = QuadratureSpec(rel_tol=1e-9)
        eps = sys.float_info.epsilon
        for omega in (0.5, 3.6, 12.0):
            for tau in (0.05, 0.5):
                for phi in (0.0, 0.7, 1.3):
                    exact = 2.0 * tau * math.cos(phi) / (tau * tau + omega * omega)
                    res = integrate_realline(lambda k: math.cos(omega * k + phi), tau, spec)
                    err = abs(res.value - exact)
                    assert err <= res.error_estimate + 8.0 * eps * abs(exact), (
                        omega, tau, phi, err, res.error_estimate
                    )

    def test_budget_exhaustion_counts_calls_of_f(self):
        tight = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=1)
        with pytest.raises(ToleranceNotMet) as err:
            integrate_realline(lambda k: math.cos(50.0 * k) / (1.0 + k * k), 0.01, tight)
        # the fold calls f twice per node of the 14 half-line panels (up to
        # the cut at T = 28)
        assert err.value.evaluations == 2 * 14 * (15 + 30)


class TestInterval:
    def test_polynomial(self):
        res = integrate_interval(lambda x: x * x, 0.0, 3.0, SPEC)
        assert abs(res.value - 9.0) < 1e-10

    def test_oscillation_hint(self):
        res = integrate_interval(lambda x: math.cos(40.0 * x), 0.0, 10.0, SPEC)
        assert abs(res.value - math.sin(400.0) / 40.0) < 1e-9

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_interval(lambda x: x, 1.0, 1.0, SPEC)


class TestNonFinite:
    """A panel whose value is not finite stops the integral at once, naming
    the panel; bisection cannot repair it."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_stops_at_the_first_panel(self, bad):
        with pytest.raises(ToleranceNotMet) as err:
            integrate_interval(lambda x: bad, 0.0, 1.0, SPEC)
        assert err.value.evaluations <= 45
        assert "[0.0, 1.0]" in str(err.value)

    def test_halfline_stops_on_the_failing_initial_panel(self):
        # 1/tau = 1: initial panels are 2 wide, so the first with w > 20 is
        # [20, 22], the 11th
        with pytest.raises(ToleranceNotMet) as err:
            integrate_halfline(lambda w: math.nan if w > 20.0 else 1.0, 1.0, SPEC)
        assert "[20.0, 22.0]" in str(err.value)
        assert err.value.evaluations == 15 * 11

    def test_stops_on_a_half_that_is_not_finite(self):
        # 0.25 is no node of [0, 1], so the panel is finite; it is the
        # midpoint of its left half, which the guard bisection integrates
        with pytest.raises(ToleranceNotMet) as err:
            integrate_interval(lambda x: math.nan if x == 0.25 else 1.0, 0.0, 1.0, SPEC)
        assert "[0.0, 1.0]" in str(err.value)
        assert err.value.evaluations == 15 + 30


class TestIntegrandType:
    """The value has the integrand's type, and a real integrand takes the same
    path as the same integrand boxed into a complex."""

    def test_real_integrand_gives_float(self):
        assert type(integrate_interval(lambda x: x * x, 0.0, 3.0, SPEC).value) is float
        assert type(integrate_halfline(lambda w: w, 0.5, SPEC).value) is float
        assert type(integrate_realline(lambda k: math.exp(-k * k), 0.5, SPEC).value) is float

    @pytest.mark.parametrize(
        "f,tau",
        [
            (lambda w: math.cos(50.0 * w) / (1.0 + w), 0.1),
            (_folded_pointsplit(StepConfig(1.0, 1.0), 1.0, Regulator(0.0025, 0.0025, 0.05)), 0.05),
            (lambda w: s_omega(WellConfig(1.0, 1.0), w, Regulator(0.0025, 0.0025, 0.05), 0.0), 0.05),
        ],
        ids=["cos50", "folded-pointsplit", "s-omega"],
    )
    def test_complex_boxing_changes_no_bit(self, f, tau):
        real = integrate_halfline(f, tau, SPEC)
        boxed = integrate_halfline(lambda w: complex(f(w)), tau, SPEC)
        assert type(boxed.value) is complex
        assert boxed.value.real == real.value
        assert boxed.error_estimate == real.error_estimate
        assert boxed.evaluations == real.evaluations


class TestClassifyLimit:
    S4 = (0.1, 0.01, 0.001, 0.0001)

    def test_constant_sequence(self):
        out = classify_limit([(s, 1.0) for s in self.S4])
        assert out.kind is LimitKind.FINITE
        assert out.value == 1.0
        assert out.confidence == 1.0

    def test_harmonic_blowup(self):
        out = classify_limit([(s, 1.0 / s) for s in self.S4])
        assert out.kind is LimitKind.DIVERGENT

    def test_quadratic_approach(self):
        # extrapolation kernel must recover the exact limit of 1 + s^2
        out = classify_limit([(s, 1.0 + s * s) for s in (0.1, 0.05, 0.025, 0.0125)])
        assert out.kind is LimitKind.FINITE
        assert abs(out.value - 1.0) < 1e-8

    def test_oscillating_sequence_is_indeterminate(self):
        out = classify_limit(
            [(s, (-1.0) ** i) for i, s in enumerate((0.1, 0.05, 0.025, 0.0125, 0.00625))]
        )
        assert out.kind is LimitKind.INDETERMINATE

    def test_zero_sequence(self):
        out = classify_limit([(s, 0.0) for s in self.S4])
        assert out.kind is LimitKind.FINITE
        assert out.value == 0.0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            classify_limit([(0.1, 1.0), (0.05, 1.0), (0.025, 1.0)])

    def test_a_zero_sample_skips_the_power_law_fit(self):
        # the last sample is exactly 0, which has no logarithm; the
        # extrapolation still finds the linear sequence's limit
        out = classify_limit([(s, s - 1e-4) for s in self.S4])
        assert out.kind is LimitKind.FINITE
        assert abs(out.value + 1e-4) < 1e-15

    def test_nonmonotone_schedule_rejected(self):
        with pytest.raises(ValueError):
            classify_limit([(0.1, 1.0), (0.2, 1.0), (0.05, 1.0), (0.025, 1.0)])

    def test_schedule_whose_logs_coincide_fits_no_power_law(self):
        # four adjacent floats below 1e-3 decrease strictly, but their logs are one
        # float, so the fit would have no spread in log s: refused
        s = [0.0009999999999999996]
        for _ in range(3):
            s.append(math.nextafter(s[-1], 0.0))
        assert len({math.log(x) for x in s}) == 1
        with pytest.raises(ValueError, match=re.escape(f"s = {s[0]} and {s[1]} have the same logarithm")):
            classify_limit([(x, 1.0 / x) for x in s])

    @given(st.integers(min_value=-8, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_scale_consistency_exact_for_binary_powers(self, exponent):
        c = 2.0**exponent
        base = [(s, 1.0 + s * s) for s in (0.1, 0.05, 0.025, 0.0125)]
        scaled = [(s, c * v) for s, v in base]
        out_base = classify_limit(base)
        out_scaled = classify_limit(scaled)
        assert out_base.kind is out_scaled.kind is LimitKind.FINITE
        assert out_scaled.value == c * out_base.value

    def test_scale_consistency_complex(self):
        c = 1.7 - 0.3j
        base = [(s, 2.0 + s**3) for s in (0.2, 0.1, 0.05, 0.025, 0.0125)]
        out_base = classify_limit(base)
        out_scaled = classify_limit([(s, c * v) for s, v in base])
        assert out_scaled.kind is out_base.kind is LimitKind.FINITE
        assert abs(out_scaled.value - c * out_base.value) < 1e-12 * abs(c)

    def test_divergent_preserved_under_scaling(self):
        out = classify_limit([(s, 5.0 / s**2) for s in self.S4])
        assert out.kind is LimitKind.DIVERGENT


class TestSpecValidation:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-10
        assert spec.abs_tol == 1e-14
        assert spec.max_subdivisions == 20000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1.0},
            {"max_subdivisions": 0},
            {"rel_tol": math.nan},
            {"abs_tol": math.nan},
            {"rel_tol": math.inf},
            {"abs_tol": math.inf},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


def test_negative_error_estimate_rejected():
    with pytest.raises(ValueError, match="error_estimate must be >= 0"):
        QuadratureResult(1.0, -1e-16)
