import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab.core import Regulator
from regulab.errors import SingularRegulator, TooFewSamples
from regulab.flanagan import ConformalMap, delta_flanagan
from regulab.numerics import LimitKind
from regulab.regulator_lab import (
    AmbiguityExpr,
    LimitPath,
    ratio_239,
    scan_path,
    sigma1,
)

SCHED = [0.2 * 2.0**-j for j in range(8)]


class TestSigma1:
    def test_cutoff_only(self):
        assert sigma1(Regulator(0.0, 0.0, 0.3)) == complex(0.09, 0.0)

    def test_null_split(self):
        assert sigma1(Regulator(0.2, 0.2, 0.0)) == 0j

    def test_hand_checked_value(self):
        z = sigma1(Regulator(0.1, 0.2, 0.05))
        assert abs(z - complex(0.0325, 0.01)) < 1e-15


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
