"""Square-well scattering modes and the point-split kinetic energy density.

The potential is a constant barrier lam on |x| < a and zero outside; modes
come in a symmetric (j=1) and an antisymmetric (j=2) family.  Below the
barrier top (omega^2 < lam) all trigonometric functions of
q = sqrt(omega^2 - lam) continue to hyperbolic ones; everything here is
written in terms of the entire functions cos(c*sqrt(z)) and sinc(c*sqrt(z))
of z = omega^2 - lam, so no branch or 0/0 trouble arises anywhere, including
the removable point omega^2 = lam of the antisymmetric family.

The renormalized density inside the well is a frequency integral of a
subtracted per-mode density plus a slowly-decaying remainder whose cutoff
integral has an elementary closed form; the closed form is what carries the
entire dependence on how (eps0, eps1, tau) -> 0.

t00r_static validates its inputs once and builds the subtracted integrand
once per call, as a closure over the constants of (cfg, reg, x); the
quadrature nodes then pay for the arithmetic alone.  s_omega and xi_lambda
stay as the per-omega API, with their own validation, and evaluate the same
closures, so all three agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

from .core import Regulator
from .errors import InvalidCutoff, InvalidFrequency, OutsideRegionI, SingularRegulator
from .numerics import QuadratureResult, QuadratureSpec, integrate_halfline

__all__ = [
    "WellConfig",
    "ModeParity",
    "ModeSolution",
    "mode_solution",
    "chi_inside",
    "chi_outside",
    "xi_lambda",
    "xi_free",
    "r_omega",
    "s_omega",
    "r_integral_closed",
    "t00r_static",
]

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class WellConfig:
    """Barrier strength lam >= 0 (1/length^2) and half-width a > 0."""

    lam: float
    a: float

    def __post_init__(self):
        if not (self.lam >= 0.0) or not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (self.a > 0.0) or not math.isfinite(self.a):
            raise ValueError(f"a must be finite and > 0, got {self.a}")


class ModeParity(IntEnum):
    SYMMETRIC = 1
    ANTISYMMETRIC = 2


@dataclass(frozen=True)
class ModeSolution:
    """Interior amplitude squared and exterior phase of one scattering mode.

    Below the barrier top the antisymmetric amp_sq continues to negative
    values (the interior coefficient turns imaginary while the mode itself
    stays real); it passes through a pole at omega^2 = lam.
    """

    amp_sq: float
    phase: float


def _cos_sqrt(z: float, c: float) -> float:
    """cos(c*sqrt(z)) continued to z < 0 (= cosh(c*sqrt(-z)))."""
    if z >= 0.0:
        return math.cos(c * math.sqrt(z))
    return math.cosh(c * math.sqrt(-z))


def _sinc_w2(w2: float) -> float:
    """sin(w)/w as a function of w2 = w^2, continued to w2 < 0 (= sinh(w')/w'
    with w' = sqrt(-w2)); entire in w2."""
    if abs(w2) < 1e-12:
        return 1.0 - w2 / 6.0 + w2 * w2 / 120.0
    if w2 > 0.0:
        w = math.sqrt(w2)
        return math.sin(w) / w
    w = math.sqrt(-w2)
    return math.sinh(w) / w


def _sinc_sqrt(z: float, c: float) -> float:
    """sin(c*sqrt(z))/(c*sqrt(z)) continued to z < 0; entire in z."""
    return _sinc_w2(c * c * z)


def _interior_factors(cfg: WellConfig, omega: float) -> tuple[float, float, float, float]:
    """(z, sa, shared, n1) at frequency omega: z = omega^2 - lam,
    sa = sinc(a sqrt(z)) and shared = 1 + lam*a^2*sa^2.  amp_sq_j = omega^2 / n_j,
    with n1 = omega^2 - lam*sin^2(a q) = lam + z*(2 - shared) and
    n2 = omega^2 - lam*cos^2(a q) = z*shared."""
    z = omega * omega - cfg.lam
    sa = _sinc_sqrt(z, cfg.a)
    shared = 1.0 + cfg.lam * cfg.a * cfg.a * sa * sa
    return z, sa, shared, cfg.lam + z * (2.0 - shared)


def _check_frequency(omega: float):
    if not (omega > 0.0) or not math.isfinite(omega):
        raise InvalidFrequency(f"omega must be finite and > 0, got {omega}")


def mode_solution(cfg: WellConfig, j: ModeParity | int, omega: float) -> ModeSolution:
    """Closed-form amplitude and phase of the j-th family at frequency omega.

    The phase is the exterior phase shift, chosen in its 2*pi class nearest 0
    so that the interior and exterior pieces match with consistent sign.
    """
    _check_frequency(omega)
    j = ModeParity(j)
    z, sa, shared, n1 = _interior_factors(cfg, omega)
    ca = _cos_sqrt(z, cfg.a)

    if j is ModeParity.SYMMETRIC:
        amp_sq = omega * omega / n1
        rn1 = math.sqrt(n1)
        # boundary data: chi(a) and chi'(a)/(-omega) of the interior solution
        cos_part = omega * ca / rn1
        sin_part = z * cfg.a * sa / rn1
        theta = math.atan2(sin_part, cos_part)
    else:
        n2 = z * shared
        amp_sq = math.inf if n2 == 0.0 else omega * omega / n2
        rs = math.sqrt(shared)
        sin_part = omega * cfg.a * sa / rs
        cos_part = ca / rs
        theta = math.atan2(sin_part, cos_part)
    delta = theta - omega * cfg.a
    delta -= _TWO_PI * round(delta / _TWO_PI)
    return ModeSolution(amp_sq, delta)


def chi_inside(cfg: WellConfig, j: ModeParity | int, omega: float, x: float) -> tuple[float, float]:
    """(value, derivative) of the interior mode function at x, |x| < a."""
    _check_frequency(omega)
    j = ModeParity(j)
    z, _, shared, n1 = _interior_factors(cfg, omega)
    cx = _cos_sqrt(z, x)
    sx = _sinc_sqrt(z, x)
    if j is ModeParity.SYMMETRIC:
        rn1 = math.sqrt(n1)
        return omega * cx / rn1, -omega * z * x * sx / rn1
    rs = math.sqrt(shared)
    return omega * x * sx / rs, omega * cx / rs


def chi_outside(cfg: WellConfig, j: ModeParity | int, omega: float, x: float) -> tuple[float, float]:
    """(value, derivative) of the exterior mode function at x, |x| > a."""
    sol = mode_solution(cfg, j, omega)
    if ModeParity(j) is ModeParity.SYMMETRIC:
        arg = omega * abs(x) + sol.phase
        sgn = 1.0 if x >= 0.0 else -1.0
        return math.cos(arg), -sgn * omega * math.sin(arg)
    arg = omega * x + sol.phase * (1.0 if x > 0.0 else -1.0)
    return math.sin(arg), omega * math.cos(arg)


def _check_region(cfg: WellConfig, reg: Regulator, x: float):
    if abs(x) + reg.eps1 / 2.0 >= cfg.a:
        raise OutsideRegionI(
            f"x outside |x|<a: need |x| + eps1/2 < a = {cfg.a}, got x = {x}, eps1 = {reg.eps1}"
        )


def _interior_ratios(cfg: WellConfig, reg: Regulator, x: float) -> Callable[[float], float]:
    """omega -> sum over both families of the per-mode interior bilinear,
    divided by the common factor omega*cos(omega*eps0)/(4*pi).  Fused so that
    the 1/omega and the omega^2 -> lam cancellations happen analytically.

    The constants of (cfg, reg, x) are computed once, here; each keeps the
    association it has in _interior_factors and _sinc_sqrt (lam*a*a is
    (lam*a)*a), so the closure's values do not depend on the hoisting.  The
    closure repeats _interior_factors' three lines instead of calling it:
    that call per node made t00r_static about 10% slower."""
    lam, e1 = cfg.lam, reg.eps1
    aa = cfg.a * cfg.a
    laa = lam * cfg.a * cfg.a
    y1 = x + e1 / 2.0
    y1p = x - e1 / 2.0
    yy = y1 * y1
    yyp = y1p * y1p
    lyy = lam * y1 * y1p

    def ratios(omega: float) -> float:
        z = omega * omega - lam
        sa = _sinc_w2(aa * z)
        shared = 1.0 + laa * sa * sa
        n1 = lam + z * (2.0 - shared)
        ce = _cos_sqrt(z, e1)
        cross = lyy * _sinc_w2(yy * z) * _sinc_w2(yyp * z)
        ratio2 = (ce + cross) / shared
        ratio1 = ((lam + z) * ce - z * cross) / n1
        return ratio1 + ratio2

    return ratios


def _subtracted_integrand(cfg: WellConfig, reg: Regulator, x: float) -> Callable[[float], float]:
    """omega -> s_omega(cfg, omega, reg, x) without validation: the caller
    checks the region once, and quadrature nodes are finite and > 0.
    cos(omega*eps0) is computed once per omega and shared by the fused
    density and the remainder r_omega."""
    ratios = _interior_ratios(cfg, reg, x)
    e0, e1 = reg.eps0, reg.eps1
    r_pref = cfg.lam / _FOUR_PI * e1  # r_omega's prefactor

    def s(omega: float) -> float:
        c0 = math.cos(omega * e0)
        density = omega * c0 / _FOUR_PI * (ratios(omega) - 2.0 * math.cos(omega * e1))
        return density - r_pref * c0 * math.sin(omega * e1)

    return s


def xi_lambda(cfg: WellConfig, omega: float, reg: Regulator, x: float) -> float:
    """Point-split per-frequency kinetic density inside the well.

    The time dependence drops out of the vacuum bilinear (the split enters
    only through cos(omega*eps0)).
    """
    _check_frequency(omega)
    _check_region(cfg, reg, x)
    pref = omega * math.cos(omega * reg.eps0) / _FOUR_PI
    return pref * _interior_ratios(cfg, reg, x)(omega)


def xi_free(omega: float, reg: Regulator) -> float:
    """Free-field counterpart of xi_lambda (lam = 0), independent of x."""
    _check_frequency(omega)
    return omega * math.cos(omega * reg.eps0) * math.cos(omega * reg.eps1) / _TWO_PI


def r_omega(cfg: WellConfig, omega: float, reg: Regulator) -> float:
    """Slowly-decaying remainder isolated from xi_lambda - xi_free; its cutoff
    integral is r_integral_closed."""
    _check_frequency(omega)
    return (
        cfg.lam
        / _FOUR_PI
        * reg.eps1
        * math.cos(omega * reg.eps0)
        * math.sin(omega * reg.eps1)
    )


def s_omega(cfg: WellConfig, omega: float, reg: Regulator, x: float) -> float:
    """Integrable part of the subtracted density: (xi_lambda - xi_free) - r_omega."""
    _check_frequency(omega)
    _check_region(cfg, reg, x)
    return _subtracted_integrand(cfg, reg, x)(omega)


def r_integral_closed(cfg: WellConfig, reg: Regulator) -> float:
    """Elementary closed form of the cutoff integral of r_omega.

    Divergent directions of (eps0, eps1, tau) -> 0 show up here as a vanishing
    complex denominator, reported as SingularRegulator.
    """
    e0, e1, tau = reg.eps0, reg.eps1, reg.tau
    den = complex(e1 * e1 - e0 * e0 + tau * tau, -2.0 * tau * e0)
    if den == 0:
        raise SingularRegulator(
            f"eps1^2 - eps0^2 + tau^2 and eps0*tau both vanish at {reg}"
        )
    return cfg.lam / (8.0 * math.pi) * 2.0 * (e1 * e1 / den).real


def t00r_static(
    cfg: WellConfig,
    reg: Regulator,
    x: float,
    t: float = 0.0,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Renormalized point-split kinetic energy density inside the well.

    Quadrature of s_omega under the cutoff weight, plus the closed form for
    the remainder integral.  The static well's vacuum density does not depend
    on time, so t has no effect.
    """
    if not (reg.tau > 0.0):
        raise InvalidCutoff(f"tau must be > 0, got {reg.tau}")
    _check_region(cfg, reg, x)
    spec = spec or QuadratureSpec()
    if cfg.lam == 0.0:
        return QuadratureResult(0.0, 0.0)
    quad = integrate_halfline(_subtracted_integrand(cfg, reg, x), reg.tau, spec)
    value = quad.value + r_integral_closed(cfg, reg)
    return QuadratureResult(value, quad.error_estimate, quad.evaluations)
