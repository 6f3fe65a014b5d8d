import math
import random

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from regulab.core import Regulator
from regulab.errors import (
    InvalidCutoff,
    InvalidFrequency,
    OutsideRegionI,
    SingularRegulator,
)
from regulab.numerics import LimitKind, QuadratureSpec, classify_limit, integrate_halfline
from regulab.selftest import check_xi_consistency, xi_brute_force
from regulab.static_well import (
    WellConfig,
    chi_inside,
    chi_outside,
    mode_solution,
    r_integral_closed,
    r_omega,
    s_omega,
    t00r_static,
    xi_free,
    xi_lambda,
)
from regulab.static_well import _FOUR_PI, _cos_sqrt, _sinc_w2, _subtracted_integrand

CFG = WellConfig(1.0, 1.0)
SPEC = QuadratureSpec()


def ode_mode_oracle(cfg, j, omega):
    """Solve the interior wave equation numerically from the symmetry axis and
    normalize so the exterior wave has unit amplitude.  Returns (amp_sq, phase)
    without touching any closed form."""
    y0 = [1.0, 0.0] if j == 1 else [0.0, 1.0]

    def rhs(x, y):
        return [y[1], (cfg.lam - omega * omega) * y[0]]

    sol = solve_ivp(rhs, (0.0, cfg.a), y0, rtol=1e-12, atol=1e-14, dense_output=True)
    chi_a, dchi_a = sol.y[0][-1], sol.y[1][-1]
    # outside: R*cos(omega x + phi); amplitude R from value and slope at x = a
    big_r = math.hypot(chi_a, dchi_a / omega)
    if j == 1:
        # chi = A cos(q x) with chi(0) = 1, so interior coefficient is 1/R
        amp_sq = 1.0 / (big_r * big_r)
        theta = math.atan2(-dchi_a / omega, chi_a)  # omega*a + delta
    else:
        # chi = A sin(q x): the solve used chi'(0) = 1; the interior coefficient
        # relative to exterior unit amplitude depends on q, recovered below.
        amp_sq = None  # filled by caller comparison helper
        theta = math.atan2(chi_a, dchi_a / omega)
    delta = theta - omega * cfg.a
    delta -= 2.0 * math.pi * round(delta / (2.0 * math.pi))
    return big_r, delta


class TestModeSolution:
    def test_free_field(self):
        sol = mode_solution(WellConfig(0.0, 1.0), 1, 2.3)
        assert sol.amp_sq == 1.0
        assert abs(sol.phase) < 1e-12

    def test_above_barrier_frozen_value(self):
        sol = mode_solution(CFG, 1, 10.0)
        expect = 1.0 / (1.0 - 0.01 * math.sin(math.sqrt(99.0)) ** 2)
        assert abs(sol.amp_sq - expect) < 1e-14
        assert abs(sol.amp_sq - 1.002519312075703) < 1e-12

    def test_below_barrier_frozen_value(self):
        sol = mode_solution(CFG, 1, 0.5)
        expect = 1.0 / (1.0 + 4.0 * math.sinh(math.sqrt(0.75)) ** 2)
        assert abs(sol.amp_sq - expect) < 1e-14

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(InvalidFrequency):
            mode_solution(CFG, 1, 0.0)
        with pytest.raises(InvalidFrequency):
            mode_solution(CFG, 2, -1.0)

    @pytest.mark.parametrize("j", [1, 2])
    def test_amplitude_against_ode_oracle(self, j):
        rng = np.random.default_rng(3)
        for _ in range(12):
            cfg = WellConfig(float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.3, 2.0)))
            omega = float(rng.uniform(0.1, 3.0) * math.sqrt(cfg.lam))
            if abs(omega * omega - cfg.lam) < 1e-3:
                omega *= 1.1
            sol = mode_solution(cfg, j, omega)
            big_r, delta_ode = ode_mode_oracle(cfg, j, omega)
            if j == 1:
                assert abs(sol.amp_sq - 1.0 / big_r**2) < 1e-8 * max(1.0, abs(sol.amp_sq))
            else:
                # the solve fixed chi'(0) = 1, i.e. interior coefficient 1/q;
                # unit exterior amplitude rescales it by 1/R, and amp_sq keeps
                # the sign of q^2 under the barrier continuation
                z = omega * omega - cfg.lam
                assert abs(sol.amp_sq - 1.0 / (z * big_r * big_r)) < 1e-8 * max(
                    1.0, abs(sol.amp_sq)
                )
            assert abs(math.sin(sol.phase - delta_ode)) < 1e-8

    def test_amp_continuity_across_barrier_top(self):
        # the sinc-normalized forms stay stable arbitrarily close to the top,
        # so the two side limits can be compared directly
        h = 1e-10
        lam = CFG.lam
        above = mode_solution(CFG, 1, math.sqrt(lam + h)).amp_sq
        below = mode_solution(CFG, 1, math.sqrt(lam - h)).amp_sq
        assert abs(above - below) < 1e-9 * max(1.0, abs(above))
        # the antisymmetric family passes through a pole there: its reciprocal
        # is the continuous object
        above2 = 1.0 / mode_solution(CFG, 2, math.sqrt(lam + h)).amp_sq
        below2 = 1.0 / mode_solution(CFG, 2, math.sqrt(lam - h)).amp_sq
        assert abs(above2 - below2) < 1e-9

    def test_chi_continuity_random_draws(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for i in range(100):
            lam = float(rng.uniform(0.1, 5.0))
            a = float(rng.uniform(0.2, 3.0))
            cfg = WellConfig(lam, a)
            if i % 3 == 0:
                omega = float(rng.uniform(0.05, 0.95)) * math.sqrt(lam)
            else:
                omega = float(rng.uniform(1.05, 3.0)) * math.sqrt(lam)
            for j in (1, 2):
                for x_edge in (a, -a):
                    vi, di = chi_inside(cfg, j, omega, x_edge)
                    vo, do = chi_outside(cfg, j, omega, x_edge)
                    worst = max(worst, abs(vi - vo), abs(di - do))
        assert worst < 1e-10


class TestXi:
    def test_reduces_to_free_field(self):
        cfg0 = WellConfig(0.0, 1.0)
        reg = Regulator(0.03, 0.05, 0.0)
        for omega in (0.2, 1.0, 7.7):
            assert abs(xi_lambda(cfg0, omega, reg, 0.4) - xi_free(omega, reg)) <= 1e-15 * abs(
                xi_free(omega, reg)
            )

    def test_matches_per_mode_oracle(self):
        ok, detail = check_xi_consistency(np.random.default_rng(5), 100)
        assert ok, detail

    def test_coincidence_limit(self):
        reg0 = Regulator(0.0, 0.0, 0.0)
        for omega, x in [(2.0, 0.0), (0.7, 0.3), (1.0001, -0.5)]:
            assert abs(xi_lambda(CFG, omega, reg0, x) - xi_brute_force(CFG, omega, reg0, x)) < 1e-12

    def test_region_check(self):
        with pytest.raises(OutsideRegionI):
            xi_lambda(CFG, 1.0, Regulator(0.0, 0.0, 0.0), 1.0)
        with pytest.raises(OutsideRegionI):
            xi_lambda(CFG, 1.0, Regulator(0.0, 0.5, 0.0), 0.8)


class TestRemainder:
    def test_vanishes_without_space_split(self):
        assert r_omega(CFG, 3.0, Regulator(0.1, 0.0, 0.0)) == 0.0

    def test_free_field_gives_zero(self):
        cfg0 = WellConfig(0.0, 1.0)
        reg = Regulator(0.1, 0.2, 0.0)
        assert r_omega(cfg0, 2.0, reg) == 0.0
        assert s_omega(cfg0, 2.0, reg, 0.3) == 0.0

    def test_subtracted_integrand_decays_faster_than_1_over_omega(self):
        reg0 = Regulator(0.0, 0.0, 0.0)
        scaled = [abs(s_omega(CFG, w, reg0, 0.0)) * w for w in (1e2, 1e3, 1e4)]
        assert scaled[0] > scaled[1] > scaled[2]

    def test_closed_form_matches_quadrature(self):
        reg = Regulator(0.001, 0.002, 0.05)
        closed = r_integral_closed(CFG, reg)
        quad = integrate_halfline(lambda w: r_omega(CFG, w, reg), reg.tau, SPEC)
        assert abs(closed - quad.value) <= 1e-8 * abs(closed)

    def test_zero_space_split_gives_zero(self):
        assert r_integral_closed(CFG, Regulator(0.01, 0.0, 0.3)) == 0.0

    def test_null_split_is_singular(self):
        with pytest.raises(SingularRegulator):
            r_integral_closed(CFG, Regulator(0.05, 0.05, 0.0))

    def test_elementary_antiderivative_oracle(self):
        # product-to-sum: the integral is a pair of Lorentzian-type terms
        lam = CFG.lam
        for e0, e1, tau in [(0.02, 0.05, 0.3), (0.1, 0.04, 0.5), (0.0, 0.07, 0.2)]:
            p, m = e1 + e0, e1 - e0
            oracle = lam * e1 / (8 * math.pi) * (p / (p * p + tau * tau) + m / (m * m + tau * tau))
            assert abs(r_integral_closed(CFG, Regulator(e0, e1, tau)) - oracle) < 1e-15 + 1e-12 * abs(oracle)


def _terms_40_digits(omega, lam, a, e0, e1, y1, y1p):
    """The four terms whose sum is s_omega, from q = sqrt(omega^2 - lam),
    imaginary below the barrier top."""
    z = omega * omega - lam
    q = mpmath.sqrt(mpmath.mpc(z))
    shared = 1 + lam * mpmath.sin(a * q) ** 2 / z
    n1 = lam + z * (2 - shared)
    ce = mpmath.cos(e1 * q)
    cross = lam * mpmath.sin(q * y1) * mpmath.sin(q * y1p) / z
    c0 = mpmath.cos(omega * e0)
    pref = omega * c0 / (4 * mpmath.pi)
    terms = (
        pref * ((lam + z) * ce - z * cross) / n1,
        pref * (ce + cross) / shared,
        -2 * pref * mpmath.cos(omega * e1),
        -lam / (4 * mpmath.pi) * e1 * c0 * mpmath.sin(omega * e1),
    )
    return tuple(mpmath.re(t) for t in terms)


def _value_and_scale_40_digits(cfg, reg, x, omega):
    """s_omega in 40 digits, and its terms' scale: the largest of the four
    terms and of |p ds/dp| over the inputs p, omega, lam, a, eps0, eps1 and
    the split points x +- eps1/2, which is what a relative rounding of one
    input moves the value by, per unit of that rounding.  Where n1 cancels or
    a sine has a large argument, the second is the larger."""
    with mpmath.workdps(40):
        args = [mpmath.mpf(v) for v in (omega, cfg.lam, cfg.a, reg.eps0, reg.eps1)]
        args += [mpmath.mpf(x) + args[4] / 2, mpmath.mpf(x) - args[4] / 2]
        terms = _terms_40_digits(*args)
        scale = max(abs(t) for t in terms)
        for i in range(len(args)):
            def moved(h, i=i):
                return mpmath.fsum(_terms_40_digits(*args[:i], args[i] * (1 + h), *args[i + 1:]))

            scale = max(scale, abs(mpmath.diff(moved, 0)))
        return float(mpmath.fsum(terms)), float(scale)


class TestSubtractedIntegrand:
    """The closure t00r_static integrates, against the per-mode route."""

    @staticmethod
    def oracle(cfg, omega, reg, x):
        return xi_brute_force(cfg, omega, reg, x) - xi_free(omega, reg) - r_omega(cfg, omega, reg)

    @staticmethod
    def entire_function_integrand(cfg, reg, x):
        """The integrand with every factor through _sinc_w2 and _cos_sqrt,
        the helpers' form, and the closure's arithmetic outside the fused
        ratio: the two differ only in how they read the ratio's factors."""
        lam, a, e0, e1 = cfg.lam, cfg.a, reg.eps0, reg.eps1
        y1, y1p = x + e1 / 2.0, x - e1 / 2.0
        r_pref = lam / _FOUR_PI * e1

        def s(omega):
            z = omega * omega - lam
            sa = _sinc_w2(a * a * z)
            shared = 1.0 + lam * a * a * sa * sa
            n1 = lam + z * (2.0 - shared)
            ce = _cos_sqrt(z, e1)
            cross = lam * y1 * y1p * _sinc_w2(y1 * y1 * z) * _sinc_w2(y1p * y1p * z)
            fused = ((lam + z) * ce - z * cross) / n1 + (ce + cross) / shared
            w1 = omega * e1
            density = omega / _FOUR_PI * (fused - 2.0 * math.cos(w1))
            return math.cos(omega * e0) * (density - r_pref * math.sin(w1))

        return s

    @pytest.mark.parametrize("lam,a", [(1.0, 1.0), (2.5, 1.0), (1.0, 5.0)])
    @pytest.mark.parametrize(
        "reg,x",
        [
            (Regulator(0.01, 0.02, 0.0), 0.3),
            (Regulator(0.0, 0.05, 0.0), -0.4),
            (Regulator(0.03, 0.0, 0.0), 0.2),
            (Regulator(0.01, 0.02, 0.0), 0.01),  # y1' = x - eps1/2 = 0
            (Regulator(0.0, 0.05, 0.0), -0.025),  # y1 = x + eps1/2 = 0
        ],
    )
    def test_matches_per_mode_oracle(self, lam, a, reg, x):
        cfg = WellConfig(lam, a)
        f = _subtracted_integrand(cfg, reg, x)
        r = math.sqrt(lam)
        below = (0.3 * r, r * (1.0 - 1e-9))
        at = r * (1.0 + 3e-15)
        # z a^2 just below and just above 1e-12, where the oracle's amplitude
        # (mode_solution's _sinc_w2) turns from its series to sin(w)/w; the
        # closure reads sin(aq) on both
        switch = tuple(math.sqrt(lam + 1e-12 * k / (a * a)) for k in (0.98, 1.02))
        above = (r * (1.0 + 1e-9), 1.7 * r, 12.0)
        # the oracle's series branch, with x != 0
        assert 0.0 < abs(a * a * (at * at - lam)) < 1e-12
        assert [(w * w - lam) * (a * a) >= 1e-12 for w in switch] == [False, True]
        for omega in below + (at,) + switch + above:
            assert abs(f(omega) - self.oracle(cfg, omega, reg, x)) < 1e-12, omega

    @pytest.mark.parametrize("a", [1.0, 40.0])
    def test_finite_at_the_barrier_top(self, a):
        # omega^2 = lam exactly is a pole of the antisymmetric amplitude, where
        # the oracle has no value; the closure takes the two-sided limit.  At
        # a = 40 the sides +-1e-12 differ by 5e-10, about a^2 times as much
        reg = Regulator(0.01, 0.02, 0.0)
        cfg = WellConfig(1.0, a)
        f = _subtracted_integrand(cfg, reg, 0.3)
        sides = [self.oracle(cfg, 1.0 + d, reg, 0.3) for d in (-1e-12, 1e-12)]
        assert abs(f(1.0) - 0.5 * (sides[0] + sides[1])) < 1e-12
        # the limit is the helpers' value there, to the bit
        assert f(1.0) == self.entire_function_integrand(cfg, reg, 0.3)(1.0)

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_no_farther_from_40_digits_than_the_helpers(self, side):
        # seeded nodes on either side of the barrier top: above it z*big from
        # 1e-12 to 1e5, with big the largest squared length, and below it
        # omega = sqrt(lam)*u for u in [1e-3, 1 - 1e-9].  The closure's sin/cos
        # of sqrt(z), or sinh/cosh of sqrt(-z), may differ from the helpers'
        # form, but not by being less accurate.  Both round the split points
        # the same way, so what they share cancels from the comparison
        rng = random.Random(9)
        for _ in range(120):
            lam = rng.uniform(0.05, 6.0)
            a = math.exp(rng.uniform(math.log(0.2), math.log(20.0)))
            e1 = rng.uniform(0.0, 0.9) * a
            x = rng.uniform(-0.999, 0.999) * (a - e1 / 2.0)
            cfg, reg = WellConfig(lam, a), Regulator(rng.uniform(0.0, 0.5) * a, e1, 0.0)
            if side == "above":
                big = max(a * a, (x + e1 / 2.0) ** 2, (x - e1 / 2.0) ** 2, e1 * e1)
                omega = math.sqrt(lam + math.exp(rng.uniform(math.log(1.001e-12), math.log(1e5))) / big)
                assert omega * omega > lam
            else:
                omega = math.sqrt(lam) * rng.uniform(1e-3, 1.0 - 1e-9)
                assert omega * omega < lam
            ref, scale = _value_and_scale_40_digits(cfg, reg, x, omega)
            fast = abs(_subtracted_integrand(cfg, reg, x)(omega) - ref)
            helpers = abs(self.entire_function_integrand(cfg, reg, x)(omega) - ref)
            assert fast <= helpers + 4.0 * math.ulp(scale), (lam, a, e1, x, omega)

    def test_xi_lambda_and_s_omega_share_the_fused_ratio(self):
        # both read _interior_ratios, so on either side of the top they
        # differ only by the rounding of the outer products and sums; two
        # fused ratios written apart differed by up to 9e-14 above the top
        rng = random.Random(4)
        for _ in range(2000):
            lam = rng.uniform(0.05, 6.0)
            a = math.exp(rng.uniform(math.log(0.2), math.log(20.0)))
            e1 = rng.uniform(0.0, 0.9) * a
            x = rng.uniform(-0.999, 0.999) * (a - e1 / 2.0)
            cfg, reg = WellConfig(lam, a), Regulator(rng.uniform(0.0, 0.5) * a, e1, 0.0)
            omega = math.sqrt(lam) * math.exp(rng.uniform(-1.0, 3.0))
            terms = (xi_lambda(cfg, omega, reg, x), xi_free(omega, reg), r_omega(cfg, omega, reg))
            gap = terms[0] - terms[1] - terms[2] - s_omega(cfg, omega, reg, x)
            assert abs(gap) <= 8.0 * math.ulp(max(map(abs, terms))), (lam, a, e1, x, omega)


class TestDensity:
    @pytest.mark.parametrize("tau", [0.1, 0.0])
    def test_free_field_zero(self, tau):
        # the density is identically zero at lam = 0, so tau is not read
        res = t00r_static(WellConfig(0.0, 1.0), Regulator(0.01, 0.02, tau), 0.0)
        assert res.value == 0.0

    def test_requires_positive_cutoff(self):
        with pytest.raises(InvalidCutoff):
            t00r_static(CFG, Regulator(0.01, 0.01, 0.0), 0.0)

    def test_region_validation(self):
        with pytest.raises(OutsideRegionI):
            t00r_static(CFG, Regulator(0.0, 0.0, 0.1), 1.2)

    def test_even_in_x(self):
        reg = Regulator(0.0025, 0.0025, 0.1)
        for x in (0.2, 0.5):
            plus = t00r_static(CFG, reg, x, 0.0)
            minus = t00r_static(CFG, reg, -x, 0.0)
            tol = plus.error_estimate + minus.error_estimate + 1e-12
            assert abs(plus.value - minus.value) <= tol

    def test_evaluation_count(self):
        # exact and machine-independent under the default spec; the tail
        # bound puts the cut at T = 14, after 7 initial panels, and refinement
        # bisects 85 times (7 guards): 7 * 15 + 85 * 30 = 2,655
        reg = Regulator(0.0025, 0.0025, 0.05)
        res = t00r_static(CFG, reg, 0.0)
        assert res.evaluations == 2655
        assert type(res.value) is float
        assert t00r_static(WellConfig(0.0, 1.0), reg, 0.0).evaluations == 0

    @pytest.mark.parametrize(
        "lam,a,x,value,error_estimate,evaluations",
        [
            (1.0, 1.0, 0.0, -0.032063274558170894, 3.123414672571782e-12, 2655),
            (1.0, 1.0, 0.3, -0.03021659721254236, 2.706944468242747e-12, 2715),
            (1.0, 5.0, 1.5, -0.039475649083346234, 3.927519663011266e-12, 12615),
        ],
        ids=["a1-x0", "a1-x0.3", "a5-x1.5"],
    )
    def test_bit_exact_pins(self, lam, a, x, value, error_estimate, evaluations):
        # recorded with 2/tau-wide initial panels from the origin and the
        # half-line cut taken from the tail bound; the integrand does the same
        # floating-point operations in the same order on every run, so on the
        # same libm every bit must repeat
        s = 0.05
        res = t00r_static(WellConfig(lam, a), Regulator(s * s, s * s, s), x)
        assert (res.value, res.error_estimate, res.evaluations) == (value, error_estimate, evaluations)

    def test_time_independent(self):
        reg = Regulator(0.01, 0.01, 0.2)
        v0 = t00r_static(CFG, reg, 0.3, 0.0).value
        v1 = t00r_static(CFG, reg, 0.3, 5.0).value
        assert v0 == v1

    def test_recommended_path_converges(self):
        samples = []
        for s in (0.2, 0.1, 0.05, 0.025):
            reg = Regulator(s * s, s * s, s)
            samples.append((s, complex(t00r_static(CFG, reg, 0.0, 0.0).value)))
        out = classify_limit(samples)
        assert out.kind is LimitKind.FINITE

    def test_null_split_direction_is_singular(self):
        # tau = 0 with eps0 = eps1 pins the divergent direction: the closed
        # form itself blows up, so the density has no value there at all
        with pytest.raises(SingularRegulator):
            r_integral_closed(CFG, Regulator(0.1, 0.1, 0.0))


class TestConfigValidation:
    @pytest.mark.parametrize("lam,a", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_rejects_bad_config(self, lam, a):
        with pytest.raises(ValueError):
            WellConfig(lam, a)

    def test_rejects_negative_regulator(self):
        with pytest.raises(ValueError):
            Regulator(-0.1, 0.0, 0.0)

    # every per-omega function of the module, each at a valid regulator and x
    FREQUENCY_CALLS = {
        "mode_solution": lambda w: mode_solution(CFG, 1, w),
        "chi_inside": lambda w: chi_inside(CFG, 2, w, 0.3),
        "xi_lambda": lambda w: xi_lambda(CFG, w, Regulator(0.01, 0.02, 0.1), 0.3),
        "xi_free": lambda w: xi_free(w, Regulator(0.01, 0.02, 0.1)),
        "r_omega": lambda w: r_omega(CFG, w, Regulator(0.01, 0.02, 0.1)),
        "s_omega": lambda w: s_omega(CFG, w, Regulator(0.01, 0.02, 0.1), 0.3),
    }

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("name", list(FREQUENCY_CALLS))
    def test_rejects_frequency_not_finite_and_positive(self, name, omega):
        with pytest.raises(InvalidFrequency, match="omega must be finite and > 0"):
            self.FREQUENCY_CALLS[name](omega)
