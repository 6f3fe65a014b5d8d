import cmath
import math
import sys

import numpy as np
import pytest

from regulab.errors import DegenerateMap, DomainError, NonpositiveWeight, SingularRegulator
from regulab.exprlang import eval_jet1
from regulab.flanagan import (
    ConformalMap,
    WeightFunction,
    delta_flanagan,
    delta_pointsplit,
    delta_tau,
    qi_bound_rhs,
    vacuum_tvv,
)
from regulab.numerics import LimitKind, QuadratureSpec, classify_limit, integrate_halfline

SPEC = QuadratureSpec()
IDENTITY = ConformalMap.from_text("v")
EXP = ConformalMap.from_text("exp(v)")


class TestVacuumDensity:
    def test_coincidence_with_pure_cutoff(self):
        z = vacuum_tvv(0.5, 0.5, 1.0)
        assert abs(z - 1.0 / (4.0 * math.pi)) < 1e-16

    def test_quadrature_oracle(self):
        for dv, tau in [(0.3, 0.1), (1.0, 0.5), (0.1, 0.05)]:
            closed = vacuum_tvv(dv, 0.0, tau)
            quad = integrate_halfline(lambda w: w * cmath.exp(-1j * w * dv), tau, SPEC)
            assert abs(closed - quad.value / (4.0 * math.pi)) <= 1e-8 * abs(closed)

    def test_large_separation_decay(self):
        vals = [abs(vacuum_tvv(dv, 0.0, 0.1)) * dv * dv for dv in (10.0, 100.0, 1000.0)]
        target = 1.0 / (4.0 * math.pi)
        assert abs(vals[-1] - target) < 1e-3 * target

    def test_singular_at_coincidence_without_cutoff(self):
        with pytest.raises(SingularRegulator):
            vacuum_tvv(0.3, 0.3, 0.0)


class TestDeltaPointsplit:
    @pytest.mark.parametrize("text", ["exp(v)", "v + 0.5*sin(v)", "2*v + tanh(v)", "v + sqrt(1 + v^2)"])
    def test_is_the_difference_of_the_two_vacuum_densities(self, text):
        V = ConformalMap.from_text(text)
        for v in (-0.7, 0.3, 1.1):
            for vbar in (-0.2, 0.5, 0.9):
                for tau in (0.0, 0.05, 0.5):
                    (f, d1), (f_bar, d1_bar) = eval_jet1(V.expr, v), eval_jet1(V.expr, vbar)
                    plain = vacuum_tvv(v, vbar, tau)
                    pulled_back = d1 * d1_bar * vacuum_tvv(f, f_bar, tau)
                    # rounding, relative to the larger of the two cancelling terms
                    bound = 4.0 * sys.float_info.epsilon * max(abs(plain), abs(pulled_back))
                    assert abs(delta_pointsplit(V, v, vbar, tau) - (plain - pulled_back)) <= bound

    def test_identity_map_vanishes(self):
        for v, vbar, tau in [(0.0, 0.5, 0.0), (1.0, 0.9, 0.2), (-2.0, -2.0, 0.3)]:
            assert delta_pointsplit(IDENTITY, v, vbar, tau) == 0j

    def test_doubling_map_cancels_exactly(self):
        V2 = ConformalMap.from_text("2*v")
        assert delta_pointsplit(V2, 0.0, 0.1, 0.0) == 0j

    def test_affine_invariance(self):
        V = ConformalMap.from_text("3*v - 7")
        for v, vbar in [(0.0, 0.4), (1.0, 0.99999), (2.0, 2.0 - 1e-6)]:
            z = delta_pointsplit(V, v, vbar, 0.0)
            assert abs(z) < 1e-9 / (v - vbar) ** 2

    def test_exponential_map_approaches_third_derivative_limit(self):
        z = delta_pointsplit(EXP, 0.0, 0.01, 0.0)
        assert abs(z.real - (-1.0 / (48.0 * math.pi))) < 1e-4
        assert z.imag == 0.0

    def test_singular_without_any_regulator(self):
        with pytest.raises(SingularRegulator):
            delta_pointsplit(EXP, 0.3, 0.3, 0.0)


class TestDeltaFlanagan:
    def test_affine_maps_vanish(self):
        assert delta_flanagan(IDENTITY, 1.3) == 0.0
        assert delta_flanagan(ConformalMap.from_text("5*v + 2"), -0.7) == 0.0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_exponential_closed_form(self, a):
        V = ConformalMap.from_text(f"exp({a!r}*v)")
        expect = -a * a / (48.0 * math.pi)
        for v in (-1.0, 0.0, 0.8):
            assert abs(delta_flanagan(V, v) - expect) <= 1e-10 * abs(expect)

    def test_sine_perturbation_frozen_value(self):
        V = ConformalMap.from_text("v + 0.1*sin(v)")
        expect = -0.1 / (26.4 * math.pi)
        assert abs(delta_flanagan(V, 0.0) - expect) <= 1e-13

    def test_degenerate_map(self):
        with pytest.raises(DegenerateMap):
            delta_flanagan(ConformalMap.from_text("0*v"), 0.0)

    def test_richardson_limit_of_pointsplit(self):
        deltas = [0.2 * 2.0**-j for j in range(7)]
        for text, vs in [
            ("exp(2*v)", (-1.0, 0.0, 1.0)),
            ("v + 0.1*sin(v)", (-2.0, 0.0, 2.0)),
            ("tanh(v)", (-1.2, 0.0, 1.2)),
        ]:
            V = ConformalMap.from_text(text)
            for v in vs:
                out = classify_limit(
                    [(d, delta_pointsplit(V, v, v - d, 0.0)) for d in deltas]
                )
                assert out.kind is LimitKind.FINITE
                assert abs(out.value.real - delta_flanagan(V, v)) <= 1e-7


class TestNonFiniteResult:
    # V''^2 of v^690.8 overflows at v = 2, and V'^2 underflows to 0 at v = 0.5
    @pytest.mark.parametrize(
        "call",
        [
            lambda: delta_flanagan(ConformalMap.from_text("v^ln(1e300)"), 2.0),
            lambda: delta_flanagan(ConformalMap.from_text("v^ln(1e300)"), 0.5),
            lambda: delta_tau(IDENTITY, 2.0, 1e-170),
            lambda: delta_pointsplit(ConformalMap.from_text("exp(700*v)"), 1.0, 0.5, 0.1),
        ],
        ids=["flanagan-overflow", "flanagan-underflow", "tau-underflow", "pointsplit-overflow"],
    )
    def test_raises_domain_error_naming_v(self, call):
        with pytest.raises(DomainError) as err:
            call()
        assert "at v = " in str(err.value)
        assert "is not finite" in str(err.value)


class TestDeltaTau:
    def test_identity_map(self):
        assert delta_tau(IDENTITY, 0.7, 0.25) == 0.0

    def test_doubling_map_frozen_value(self):
        V2 = ConformalMap.from_text("2*v")
        assert abs(delta_tau(V2, 0.0, 0.1) - (-75.0 / math.pi)) < 1e-11

    def test_unit_slope_point_vanishes_while_taylor_limit_does_not(self):
        assert delta_tau(EXP, 0.0, 0.37) == 0.0
        assert delta_flanagan(EXP, 0.0) != 0.0

    def test_coincidence_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = float(rng.uniform(-1.5, 1.5))
            tau = float(rng.uniform(0.01, 3.0))
            split = delta_pointsplit(EXP, v, v, tau)
            direct = delta_tau(EXP, v, tau)
            assert abs(split.real - direct) <= 4e-15 * max(1.0, abs(direct))
            assert abs(split.imag) <= 1e-15 * max(1.0, abs(direct))

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            delta_tau(EXP, 0.0, 0.0)


class TestQiBound:
    def test_constant_weight(self):
        rho = WeightFunction.from_text("2 + 0*x", (-1.0, 1.0))
        res = qi_bound_rhs(rho, SPEC)
        assert res.value == 0.0

    def test_gaussian_analytic_value(self):
        # rho' ^2/rho integrates to 2/sigma^2 for a gaussian of width sigma
        rho = WeightFunction.from_text("exp(-(x/2)^2)/(2*sqrt(pi))", (-30.0, 30.0))
        res = qi_bound_rhs(rho, SPEC)
        assert abs(res.value - (-1.0 / (48.0 * math.pi))) <= 1e-8

    def test_evaluation_count(self):
        rho = WeightFunction.from_text("exp(-(x/2)^2)/(2*sqrt(pi))", (-30.0, 30.0))
        res = qi_bound_rhs(rho, SPEC)
        assert res.evaluations == 405
        assert type(res.value) is float

    def test_readme_weight_keeps_its_bits(self):
        # recorded from third-order jets: the integrand's order-1 jets are
        # their value and first derivative bit for bit
        rho = WeightFunction.from_text("exp(-(x/2)^2)/(2*sqrt(pi))", (-30.0, 30.0))
        res = qi_bound_rhs(rho, SPEC)
        assert (repr(res.value), repr(res.error_estimate), res.evaluations) == (
            "-0.006631455962162289", "5.044257591948583e-14", 405
        )

    def test_width_scaling(self):
        # the narrower gaussian needs a narrower support: e^(-900) underflows
        wide = qi_bound_rhs(
            WeightFunction.from_text("exp(-(x/2)^2)/(2*sqrt(pi))", (-30.0, 30.0)), SPEC
        )
        narrow = qi_bound_rhs(
            WeightFunction.from_text("exp(-(x/1)^2)/(1*sqrt(pi))", (-20.0, 20.0)), SPEC
        )
        assert abs(narrow.value / wide.value - 4.0) <= 1e-8

    def test_always_nonpositive(self):
        for text, support in [
            ("1/(1 + x^2)", (-40.0, 40.0)),
            ("exp(-(x/2)^2) + 0.1", (-10.0, 10.0)),
            ("2 + sin(x)", (-8.0, 8.0)),
        ]:
            res = qi_bound_rhs(WeightFunction.from_text(text, support), SPEC)
            assert res.value <= 0.0

    def test_sign_change_rejected_and_located(self):
        rho = WeightFunction.from_text("x", (-1.0, 1.0))
        with pytest.raises(NonpositiveWeight) as err:
            qi_bound_rhs(rho, SPEC)
        assert err.value.location is not None

    def test_bad_support(self):
        with pytest.raises(ValueError):
            WeightFunction.from_text("1 + 0*x", (2.0, 1.0))
