"""Right-mover vacuum quantities under a conformal reparametrization.

A map V of the null coordinate v relates two quantizations of the massless
right-moving sector.  The point-split difference of their vacuum energy
densities depends on a split v - vbar and a frequency cutoff tau, and its
value in the coincidence limit depends on which of the two is sent to zero
first:

* delta_flanagan takes vbar -> v at tau = 0 (a third-derivative Schwarzian
  combination of V);
* delta_tau sets vbar = v first and keeps tau (a cutoff-scale term that
  vanishes iff V'(v)^2 = 1).

delta_pointsplit, delta_flanagan and delta_tau raise DomainError naming v
where their value is not finite.

qi_bound_rhs evaluates the weighted-average lower bound -(1/24 pi) *
integral of rho'(x)^2 / rho(x) for a strictly positive weight rho.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import DegenerateMap, DomainError, NonpositiveWeight, SingularRegulator
from .exprlang import Expression, Jet3, eval_jet3, parse
from .numerics import QuadratureResult, QuadratureSpec, integrate_interval

__all__ = [
    "ConformalMap",
    "WeightFunction",
    "vacuum_tvv",
    "delta_pointsplit",
    "delta_flanagan",
    "delta_tau",
    "qi_bound_rhs",
]

_FOUR_PI = 4.0 * math.pi

# Below this separation the direct difference V(v) - V(vbar) loses too many
# digits to cancellation; switch to its Taylor form built from the jet at v.
_COMPENSATION_THRESHOLD = 1e-4


@dataclass(frozen=True)
class ConformalMap:
    """Reparametrization V(v) of the null coordinate, with exact jets."""

    expr: Expression

    @classmethod
    def from_text(cls, text: str) -> "ConformalMap":
        return cls(parse(text, "v"))

    def jet(self, v: float) -> Jet3:
        return eval_jet3(self.expr, v)


@dataclass(frozen=True)
class WeightFunction:
    """Strictly positive weight rho(x) with the support used for quadrature."""

    expr: Expression
    support: tuple[float, float]

    @classmethod
    def from_text(cls, text: str, support: tuple[float, float]) -> "WeightFunction":
        return cls(parse(text, "x"), (float(support[0]), float(support[1])))

    def __post_init__(self):
        lo, hi = self.support
        if not (lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"support must be a finite interval, got {self.support}")

    def jet(self, x: float) -> Jet3:
        return eval_jet3(self.expr, x)


def vacuum_tvv(v: float, vbar: float, tau: float) -> complex:
    """Point-split vacuum energy density of the right-moving sector:
    -1/(4 pi ((v - vbar) - i tau)^2)."""
    den = complex(v - vbar, -tau)
    if den == 0:
        raise SingularRegulator("v = vbar with tau = 0")
    return -1.0 / (_FOUR_PI * den * den)


def _map_difference(jet_v: Jet3, v: float, vbar: float, value_vbar: float) -> float:
    """V(v) - V(vbar), switching to the Taylor form of the jet at v for tiny
    separations where the direct difference cancels catastrophically."""
    d = v - vbar
    if abs(d) < _COMPENSATION_THRESHOLD:
        return d * (jet_v.d1 + d * (-jet_v.d2 / 2.0 + d * jet_v.d3 / 6.0))
    return jet_v.f - value_vbar


def _finite_in_v(fn):
    """Wrap fn(V, v, ...) so that a result that is not finite raises
    DomainError naming v.  A division by an intermediate that underflowed to
    0 (V'(v)^2 of a tiny V', say) counts as not finite."""

    @functools.wraps(fn)
    def checked(V, v, *args, **kwargs):
        try:
            value = fn(V, v, *args, **kwargs)
        except ZeroDivisionError:
            value = math.nan
        if not cmath.isfinite(value):
            raise DomainError(
                f"{fn.__name__} at v = {v!r} is not finite ({value}): "
                "an intermediate overflowed or underflowed"
            )
        return value

    return checked


@_finite_in_v
def delta_pointsplit(V: ConformalMap, v: float, vbar: float, tau: float = 0.0) -> complex:
    """Split-and-cutoff regulated density difference between the two
    quantizations; the object whose coincidence limit is order-dependent."""
    jet_v = V.jet(v)
    jet_vbar = V.jet(vbar)
    dv = _map_difference(jet_v, v, vbar, jet_vbar.f)
    den_mapped = complex(dv, -tau)
    den_plain = complex(v - vbar, -tau)
    if den_mapped == 0 or den_plain == 0:
        raise SingularRegulator(
            f"vanishing split denominator at v = {v}, vbar = {vbar}, tau = {tau}"
        )
    return (
        jet_v.d1 * jet_vbar.d1 / (den_mapped * den_mapped)
        - 1.0 / (den_plain * den_plain)
    ) / _FOUR_PI


@_finite_in_v
def delta_flanagan(V: ConformalMap, v: float) -> float:
    """Coincidence limit taken with the cutoff already removed:
    (1/4 pi) [V'''/(6 V') - V''^2/(4 V'^2)]."""
    jet = V.jet(v)
    if jet.d1 == 0.0:
        raise DegenerateMap(f"V'({v}) = 0")
    return (
        jet.d3 / (6.0 * jet.d1) - jet.d2 * jet.d2 / (4.0 * jet.d1 * jet.d1)
    ) / _FOUR_PI


@_finite_in_v
def delta_tau(V: ConformalMap, v: float, tau: float) -> float:
    """Coincidence limit taken before the cutoff: -(1/(4 pi tau^2)) (V'^2 - 1)."""
    if not (tau > 0.0):
        raise ValueError(f"tau must be > 0, got {tau}")
    d1 = V.jet(v).d1
    return -(d1 * d1 - 1.0) / (_FOUR_PI * tau * tau)


def qi_bound_rhs(rho: WeightFunction, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Lower bound -(1/24 pi) * integral of rho'^2/rho over the support.

    Always <= 0.  The error estimate folds in a crude bound for whatever was
    cut off outside the declared support (endpoint integrand times support
    length), so a too-short support is visible rather than silent.
    """
    spec = spec or QuadratureSpec()
    lo, hi = rho.support

    def integrand(x: float) -> float:
        jet = rho.jet(x)
        if jet.f <= 0.0:
            raise NonpositiveWeight(f"rho(x) = {jet.f} <= 0 at x = {x}", location=x)
        return jet.d1 * jet.d1 / jet.f

    quad = integrate_interval(integrand, lo, hi, spec)
    tail = (hi - lo) * max(integrand(lo), integrand(hi))
    pref = 1.0 / (24.0 * math.pi)
    return QuadratureResult(
        -pref * quad.value, pref * (quad.error_estimate + tail), quad.evaluations
    )
