import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import cutoff_slope

from regulab.core import Regulator
from regulab.errors import InvalidCutoff, SingularRegulator, SplitStraddlesStep, ZeroFrequency
from regulab.numerics import QuadratureSpec, integrate_realline
from regulab.time_step import (
    StepConfig,
    _folded_pointsplit,
    _folded_remainder,
    bogoliubov,
    d_term,
    d_term_quadrature,
    d_term_value,
    delta_xi_k,
    mode_reg_density,
    pointsplit_density,
    pointsplit_integrand,
    r_k_integrand,
    s_k,
    s_k_deriv,
)

CFG = StepConfig(1.0, 1.0)
SPEC = QuadratureSpec()
EPS = sys.float_info.epsilon


def split(s):
    """The recommended limit path eps = (s^2, s^2), tau = s."""
    return Regulator(s * s, s * s, s)


def mass_factor(cfg, k, tau):
    """e^(-(omega - k) tau) for k >= 0, with omega - k = m^2/(omega + k)
    so that it does not cancel at large k."""
    return math.exp(-cfg.m * cfg.m * tau / (math.hypot(k, cfg.m) + k))


def realline_oracle(integrand, tau, spec):
    """Integral of integrand(k) e^(-|k| tau) over the whole line, unfolded,
    divided by 2 pi: (value, error estimate)."""
    res = integrate_realline(integrand, tau, spec)
    return res.value / (2.0 * math.pi), res.error_estimate / (2.0 * math.pi)


FOLD_KS = (1e-6, 0.3, 2.7, 50.0, 1e3, 1e4)
FOLD_LAMS = (1.0, -0.4, 2.3)


class TestBogoliubov:
    def test_no_step_is_trivial(self):
        pair = bogoliubov(StepConfig(0.0, 1.0), 2.0)
        assert pair.a_k == 0.0 and pair.b_k == 1.0

    def test_frozen_example(self):
        pair = bogoliubov(StepConfig(3.0, 1.0), 0.0)
        assert pair.a_k == 0.25 and pair.b_k == 0.75

    def test_zero_frequency_rejected(self):
        with pytest.raises(ZeroFrequency):
            bogoliubov(StepConfig(1.0, 0.0), 0.0)

    @given(
        st.floats(0.05, 3.0),
        st.floats(-4.0, 8.0),
        st.floats(-30.0, 30.0),
    )
    @example(1.0234375, -0.935546875, 0.0)
    @settings(max_examples=200, deadline=None)
    def test_identities(self, m, lam, k):
        if m * m + lam <= 0.01:
            lam = 0.01 - m * m + abs(lam)
        cfg = StepConfig(lam, m)
        pair = bogoliubov(cfg, k)
        omega = math.hypot(k, m)
        big_e = math.sqrt(omega * omega + lam)
        # lam < 0 makes omega/E > 1 (up to 30 here), so a_k and b_k are of
        # size omega/E and their squares of size (omega/E)^2: the rounding
        # floor of each identity scales with those magnitudes, not with 1.
        q = max(1.0, omega / big_e)
        eps = sys.float_info.epsilon
        assert abs(pair.a_k + pair.b_k - 1.0) <= 2.0 * eps * q
        assert abs(pair.b_k**2 - pair.a_k**2 - omega / big_e) <= 4.0 * eps * q * q

    def test_identities_bulk(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            cfg = StepConfig(float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.05, 3.0)))
            k = float(rng.uniform(-25.0, 25.0))
            pair = bogoliubov(cfg, k)
            omega = math.hypot(k, cfg.m)
            big_e = math.sqrt(omega**2 + cfg.lam)
            assert abs(pair.a_k + pair.b_k - 1.0) <= 1e-15
            assert abs(pair.b_k**2 - pair.a_k**2 - omega / big_e) <= 1e-15


class TestTimeFactor:
    def test_continuity_at_switch(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            cfg = StepConfig(float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.1, 3.0)))
            k = float(rng.uniform(-10.0, 10.0))
            omega = math.hypot(k, cfg.m)
            assert abs(s_k(cfg, k, 0.0) - 1.0) <= 1e-13
            assert abs(s_k_deriv(cfg, k, 0.0) - (-1j * omega)) <= 1e-13 * max(1.0, omega)

    def test_free_evolution(self):
        cfg = StepConfig(0.0, 1.0)
        omega = math.hypot(2.0, 1.0)
        assert abs(s_k(cfg, 2.0, 5.0) - cmath.exp(-5j * omega)) < 1e-14

    def test_pre_switch_phase(self):
        omega = math.hypot(1.0, 1.0)
        assert abs(s_k(CFG, 1.0, -2.0) - cmath.exp(2j * omega)) < 1e-14

    def test_pre_switch_slope(self):
        omega = math.hypot(1.0, 1.0)
        assert abs(s_k_deriv(CFG, 1.0, -2.0) - (-1j * omega * cmath.exp(2j * omega))) < 1e-14


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: StepConfig(math.nan, 1.0), "lam and m must be finite"),
        (lambda: mode_reg_density(CFG, -1.0), "density is defined after the switch-on"),
        (lambda: pointsplit_density(StepConfig(1.0, 0.0), 1.0, split(0.05)), "pointsplit_density requires m > 0"),
    ],
    ids=["step-not-finite", "mode-sum-before-switch", "pointsplit-massless"],
)
def test_input_outside_the_domain_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def bilinear_fd_oracle(cfg, k, t, reg, h=1e-5):
    """Finite differences of the two-point bilinear built directly from s_k;
    independent of the closed-form integrand."""
    om = math.hypot(k, cfg.m)

    def g(y0, y0p, y1, y1p):
        z = s_k(cfg, k, y0) * s_k(cfg, k, y0p).conjugate() * cmath.exp(1j * k * (y1 - y1p))
        return (z + z.conjugate()).real / (4.0 * om)

    y0, y0p = t + reg.eps0 / 2, t - reg.eps0 / 2
    y1, y1p = reg.eps1 / 2, -reg.eps1 / 2
    d00 = (
        g(y0 + h, y0p + h, y1, y1p)
        - g(y0 + h, y0p - h, y1, y1p)
        - g(y0 - h, y0p + h, y1, y1p)
        + g(y0 - h, y0p - h, y1, y1p)
    ) / (4 * h * h)
    d11 = (
        g(y0, y0p, y1 + h, y1p + h)
        - g(y0, y0p, y1 + h, y1p - h)
        - g(y0, y0p, y1 - h, y1p + h)
        + g(y0, y0p, y1 - h, y1p - h)
    ) / (4 * h * h)
    full = 0.5 * (d00 + d11 + cfg.m**2 * g(y0, y0p, y1, y1p))
    free_cfg = StepConfig(0.0, cfg.m)

    def g0(y0, y0p, y1, y1p):
        z = (
            s_k(free_cfg, k, y0)
            * s_k(free_cfg, k, y0p).conjugate()
            * cmath.exp(1j * k * (y1 - y1p))
        )
        return (z + z.conjugate()).real / (4.0 * om)

    d00_0 = (
        g0(y0 + h, y0p + h, y1, y1p)
        - g0(y0 + h, y0p - h, y1, y1p)
        - g0(y0 - h, y0p + h, y1, y1p)
        + g0(y0 - h, y0p - h, y1, y1p)
    ) / (4 * h * h)
    d11_0 = (
        g0(y0, y0p, y1 + h, y1p + h)
        - g0(y0, y0p, y1 + h, y1p - h)
        - g0(y0, y0p, y1 - h, y1p + h)
        + g0(y0, y0p, y1 - h, y1p - h)
    ) / (4 * h * h)
    free = 0.5 * (d00_0 + d11_0 + cfg.m**2 * g0(y0, y0p, y1, y1p))
    return full - free


class TestPointsplitIntegrand:
    def test_against_finite_difference_bilinear(self):
        for k, t, reg in [
            (2.7, 0.9, Regulator(0.11, 0.07, 0.0)),
            (-1.3, 0.4, Regulator(0.05, 0.02, 0.0)),
            (0.5, 2.0, Regulator(0.0, 0.15, 0.0)),
        ]:
            ours = pointsplit_integrand(CFG, k, t, reg)
            oracle = bilinear_fd_oracle(CFG, k, t, reg)
            assert abs(ours - oracle) < 2e-6 * max(1.0, abs(ours))

    def test_coincidence_reduces_to_mode_change(self):
        reg0 = Regulator(0.0, 0.0, 0.0)
        for k, t in [(0.3, 0.7), (4.0, 1.3), (-2.2, 0.2)]:
            assert abs(pointsplit_integrand(CFG, k, t, reg0) - delta_xi_k(CFG, k, t)) <= 1e-13

    def test_large_k_asymptote_has_opposite_sign_to_remainder(self):
        # The integrand approaches MINUS r_k_integrand at large |k|: the
        # remainder keeps the commonly quoted sign (paired with the closed
        # form d_term), so the decaying combination is dxi + r, not dxi - r.
        reg = Regulator(0.13, 0.07, 0.0)
        t = 0.7
        for k in (200.0, 1000.0, 5000.0):
            dxi = pointsplit_integrand(CFG, k, t, reg)
            r = r_k_integrand(CFG, k, reg)
            assert abs(dxi + r) < 0.02 * abs(r)


def riemann_mode_sum(cfg, t, box=200.0, n_max=20000):
    """Discrete mode sum in a periodic box, built from s_k and its derivative
    with numpy; converges to the continuum mode-sum density."""
    n = np.arange(-n_max, n_max + 1)
    k = 2.0 * np.pi * n / box
    omega = np.hypot(k, cfg.m)
    big_e = np.sqrt(omega**2 + cfg.lam)
    a = 0.5 * (1.0 - omega / big_e)
    b = 0.5 * (1.0 + omega / big_e)
    s = a * np.exp(1j * big_e * t) + b * np.exp(-1j * big_e * t)
    ds = 1j * big_e * (a * np.exp(1j * big_e * t) - b * np.exp(-1j * big_e * t))
    xi = (np.abs(ds) ** 2 + omega**2 * np.abs(s) ** 2) / (4.0 * omega * box)
    return float(np.sum(xi - omega / (2.0 * box)))


class TestModeRegDensity:
    def test_zero_time(self):
        assert mode_reg_density(CFG, 0.0).value == 0.0

    def test_zero_step(self):
        assert mode_reg_density(StepConfig(0.0, 1.0), 1.0).value == 0.0

    def test_against_riemann_oracle(self):
        ours = mode_reg_density(CFG, 1.0, SPEC)
        oracle = riemann_mode_sum(CFG, 1.0)
        assert abs(ours.value - oracle) <= 1e-4 * abs(oracle)

    def test_per_mode_change_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = float(rng.uniform(-20, 20))
            t = float(rng.uniform(0, 3))
            assert delta_xi_k(CFG, k, t) >= 0.0

    def test_density_nonnegative(self):
        for t in (0.3, 1.0, 2.5):
            assert mode_reg_density(CFG, t, SPEC).value >= 0.0

    def test_massless_rejected(self):
        with pytest.raises(ValueError):
            mode_reg_density(StepConfig(1.0, 0.0), 1.0)

    def test_negative_step_allowed(self):
        res = mode_reg_density(StepConfig(-0.5, 1.0), 1.0, SPEC)
        assert res.value >= 0.0

    @pytest.mark.parametrize(
        "lam,m,t",
        [
            (1.0, 1.0, 1.0),
            (-0.9, 1.0, 0.3),
            (-0.4, 0.7, 5.0),
            (2.0, 0.5, 17.0),
            (-0.95, 1.2, 50.0),
            (0.3, 2.0, 100.0),
        ],
    )
    def test_error_estimate_bounds_distance_to_tight_run(self, lam, m, t):
        # the tail beyond the cut K is its leading integration-by-parts term
        # plus a bounded rest; a tighter tolerance moves K out, so a wrong
        # tail term or an underestimated rest shows as a distance above the
        # default run's own error estimate
        cfg = StepConfig(lam, m)
        loose = mode_reg_density(cfg, t, SPEC)
        tight = mode_reg_density(cfg, t, QuadratureSpec(rel_tol=1e-12))
        assert abs(loose.value - tight.value) <= loose.error_estimate


class TestFoldedIntegrands:
    """The step densities integrate f(k) + f(-k) over k >= 0 in closed form."""

    REG = Regulator(0.01, 0.02, 0.05)

    @pytest.mark.parametrize("lam", FOLD_LAMS)
    def test_pointsplit_fold_identity(self, lam):
        # mixed and free are each of size omega^2, so the unfolded sum carries
        # absolute rounding errors of a few eps times omega (times the mass
        # factor); the folded form avoids that cancellation
        cfg, reg, t = StepConfig(lam, 1.0), self.REG, 1.3
        folded = _folded_pointsplit(cfg, t, reg)
        for k in FOLD_KS:
            w = mass_factor(cfg, k, reg.tau)
            pair = pointsplit_integrand(cfg, k, t, reg) + pointsplit_integrand(cfg, -k, t, reg)
            scale = math.hypot(k, cfg.m) * w
            assert abs(folded(k) - pair * w) <= 8.0 * EPS * scale, k

    @pytest.mark.parametrize("massless", [True, False])
    @pytest.mark.parametrize("lam", FOLD_LAMS)
    def test_remainder_fold_identity(self, lam, massless):
        cfg, reg = StepConfig(lam, 1.0), self.REG
        folded = _folded_remainder(cfg, reg, massless)
        scale = abs(lam) * reg.eps0 / 2.0
        for k in FOLD_KS:
            w = 1.0 if massless else mass_factor(cfg, k, reg.tau)
            pair = r_k_integrand(cfg, k, reg, massless) + r_k_integrand(cfg, -k, reg, massless)
            assert abs(folded(k) - pair * w) <= 8.0 * EPS * scale, k

    @pytest.mark.parametrize(
        "lam,m,t,reg",
        [
            (1.0, 1.0, 1.0, split(0.05)),
            (-0.4, 1.2, 1.5, split(0.025)),
            (2.3, 0.5, 0.7, Regulator(0.05, 0.02, 0.1)),
        ],
    )
    def test_pointsplit_density_matches_realline_oracle(self, lam, m, t, reg):
        cfg, spec = StepConfig(lam, m), QuadratureSpec(rel_tol=1e-9)
        res = pointsplit_density(cfg, t, reg, spec)
        value, err = realline_oracle(
            lambda k: pointsplit_integrand(cfg, k, t, reg) * mass_factor(cfg, abs(k), reg.tau),
            reg.tau,
            spec,
        )
        assert abs(res.value - value) <= res.error_estimate + err

    @pytest.mark.parametrize("massless", [True, False])
    @pytest.mark.parametrize("reg", [split(0.05), Regulator(0.001, 0.002, 0.05)])
    def test_d_term_quadrature_matches_realline_oracle(self, reg, massless):
        res = d_term_quadrature(CFG, reg, SPEC, massless=massless)

        def integrand(k):
            r = r_k_integrand(CFG, k, reg, massless)
            return r if massless else r * mass_factor(CFG, abs(k), reg.tau)

        value, err = realline_oracle(integrand, reg.tau, SPEC)
        assert abs(res.value - value) <= res.error_estimate + err


class TestDTerm:
    def test_zero_time_split(self):
        assert d_term(CFG, Regulator(0.0, 0.01, 0.1)) == 0.0

    def test_quadrature_oracle(self):
        reg = Regulator(0.001, 0.002, 0.05)
        closed = d_term(CFG, reg)
        quad = d_term_quadrature(CFG, reg, SPEC, massless=True)
        assert abs(closed - quad.value) <= 1e-6 * abs(closed)

    def test_time_split_only_limit(self):
        # eps1 = tau = 0: the value is lam/(4 pi) for every eps0
        for e0 in (0.1, 0.001, 1e-6):
            assert abs(d_term_value(1.0, e0, 0.0, 0.0) - 1.0 / (4 * math.pi)) < 1e-12

    def test_singular_direction(self):
        with pytest.raises(SingularRegulator):
            d_term_value(1.0, 0.1, 0.1, 0.0)

    def test_degree_zero_homogeneity(self):
        base = (0.03, 0.05, 0.2)
        v0 = d_term_value(1.0, *base)
        for c in (0.5, 2.0, 37.0):
            vc = d_term_value(1.0, *(c * x for x in base))
            assert abs(vc - v0) <= 1e-13 * abs(v0)

    def test_even_in_tau(self):
        for e0, e1, tau in [(0.03, 0.05, 0.2), (0.1, 0.0, 0.07)]:
            assert d_term_value(1.0, e0, e1, tau) == pytest.approx(
                d_term_value(1.0, e0, e1, -tau), rel=1e-13
            )


class TestPointsplitDensity:
    def test_zero_step(self):
        res = pointsplit_density(StepConfig(0.0, 1.0), 1.0, Regulator(0.0, 0.0, 0.1))
        assert res.value == 0.0

    def test_cutoff_required(self):
        with pytest.raises(InvalidCutoff):
            pointsplit_density(CFG, 1.0, Regulator(0.0, 0.0, 0.0))

    def test_straddling_split_rejected(self):
        with pytest.raises(SplitStraddlesStep):
            pointsplit_density(CFG, 0.05, Regulator(0.2, 0.0, 0.1))

    def test_tracks_mode_sum(self):
        spec = QuadratureSpec(rel_tol=1e-9)
        mode = mode_reg_density(CFG, 1.0, spec).value
        ps = pointsplit_density(CFG, 1.0, Regulator(0.04, 0.04, 0.2), spec).value
        assert abs(ps - mode) < 0.5 * abs(mode)

    def test_pure_cutoff_approaches_mode_sum(self):
        # with both splits exactly zero the only disagreement left is the
        # cutoff weight, and it shrinks with tau
        spec = QuadratureSpec(rel_tol=1e-9)
        mode = mode_reg_density(CFG, 1.0, spec).value
        gaps = [
            abs(pointsplit_density(CFG, 1.0, Regulator(0.0, 0.0, tau), spec).value - mode)
            for tau in (0.4, 0.2, 0.1, 0.05)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[-1] < 0.1 * abs(mode)

    def test_late_time_small_cutoff_under_default_spec(self):
        # cos(2Et) runs through about 1,300 bisections' worth of periods here;
        # the residual against the mode sum, the gap and the cutoff's
        # first-order term is second order in tau (0.026% of the mode sum)
        t, tau = 10.0, 0.0125
        reg = Regulator(tau * tau, tau * tau, tau)
        ps = pointsplit_density(CFG, t, reg)
        mode = mode_reg_density(CFG, t)
        r = ps.value - d_term(CFG, reg) - mode.value
        assert ps.error_estimate <= SPEC.rel_tol * abs(ps.value)
        assert abs(r - cutoff_slope(CFG.lam, CFG.m, t) * tau) < 1e-3 * abs(mode.value)

    @pytest.mark.parametrize(
        "lam,m,t,reg",
        [
            (1.0, 1.0, 1.0, split(0.05)),
            (1.0, 1.0, 1.9, split(0.05)),
            (-0.4, 1.2, 1.5, split(0.025)),
            (0.3, 0.7, 2.5, Regulator(0.0004, 0.0004, 0.02)),
            (-0.6, 1.0, 3.0, Regulator(0.01, 0.01, 0.1)),
            (4.0, 0.3, 1.2, Regulator(0.001, 0.002, 0.03)),
            (1.0, 1.0, 10.0, split(0.0125)),
        ],
    )
    def test_error_estimate_bounds_distance_to_tight_run(self, lam, m, t, reg):
        # the tight run refines further, so an estimate that understates the
        # loose run's error shows as a distance above it
        cfg = StepConfig(lam, m)
        loose = pointsplit_density(cfg, t, reg, QuadratureSpec(rel_tol=1e-9))
        tight = pointsplit_density(cfg, t, reg, QuadratureSpec(rel_tol=1e-11))
        assert abs(loose.value - tight.value) <= loose.error_estimate

    def test_converges_below_the_old_rounding_floor(self):
        # unfolded, mixed - free cancelled to an absolute rounding floor of
        # about eps * omega per node; 20000 bisections then left the estimate
        # at 8.2e-14 against a tolerance of 5.2e-14
        cfg = StepConfig(-0.4, 1.2)
        res = pointsplit_density(cfg, 1.5, split(0.025), QuadratureSpec(rel_tol=1e-12))
        assert res.error_estimate <= 1e-12 * abs(res.value)


class TestEvaluationCounts:
    """Exact, machine-independent costs under the default spec at lam = m = t = 1.

    The step densities count calls of their folded integrand.  Their half-line
    integrals stop where the tail bound meets a tenth of the tolerance: at
    T = 24 for the point split and T = 28 for d_term_quadrature.  At s = 0.05
    the point split lays 12 initial panels and bisects 48 times (12 guards,
    36 refinements): 12 * 15 + 48 * 30 = 1,620.  d_term_quadrature lays 14
    and needs no bisection beyond their guards: 14 * (15 + 30) = 630."""

    def test_pointsplit_density(self):
        res = pointsplit_density(CFG, 1.0, split(0.05))
        assert res.evaluations == 1620
        assert type(res.value) is float
        assert pointsplit_density(CFG, 1.0, split(0.025)).evaluations == 2610

    def test_d_term_quadrature(self):
        res = d_term_quadrature(CFG, split(0.05))
        assert res.evaluations == 630
        assert type(res.value) is float

    def test_mode_reg_density(self):
        res = mode_reg_density(CFG, 1.0)
        assert res.evaluations == 4065
        assert type(res.value) is float

    def test_closed_forms_cost_nothing(self):
        assert mode_reg_density(CFG, 0.0).evaluations == 0
        assert pointsplit_density(StepConfig(0.0, 1.0), 1.0, split(0.05)).evaluations == 0


class TestConfigValidation:
    def test_rejects_tachyonic(self):
        with pytest.raises(ValueError):
            StepConfig(-1.0, 0.5)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            StepConfig(1.0, -1.0)
