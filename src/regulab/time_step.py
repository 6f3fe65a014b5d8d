"""Sudden switch-on of a constant potential: mode-sum vs point-split density.

At t = 0 the potential jumps from 0 to lam, so each travelling mode of
frequency omega = sqrt(k^2 + m^2) continues with frequency
E = sqrt(omega^2 + lam) and a Bogoliubov mixture of both signs.  The
renormalized kinetic energy density can then be computed two ways:

* mode_reg_density sums the per-mode energy change directly (no splitting);
* pointsplit_density point-splits the two-point function with offsets
  (eps0, eps1) and a frequency cutoff tau.

mode_reg_density turns the E-integral of the mode sum's cos(2Et) part onto
the ray E = b + i s^2, where e^(2itE) decays instead of oscillating
(numerical steepest descent: Huybrechs & Vandewalle, SIAM J. Numer. Anal.
44, 2006), so one smooth quadrature serves every t and lam.

At large |k| the point-split integrand approaches minus a slowly-decaying
remainder, r_k_integrand, whose cutoff integral in the small-split regime is
d_term = -(lam/4pi) Re[eps0 (eps0 - i*tau)/sigma_tau] (core.sigma_tau_factors).
So the point split carries -d_term: point split + d_term - mode sum vanishes
as (eps0, eps1, tau) -> 0, apart from the cutoff's first-order term c1*tau.

omega, E and the Bogoliubov pair are even in k; only the spatial phase
e^(i k eps1) is not.  So pointsplit_density and d_term_quadrature integrate
the sum of each integrand at k and -k, worked out in closed form, over
k >= 0: one evaluation of the mode quantities per quadrature node, in real
arithmetic.  pointsplit_integrand and r_k_integrand remain the per-k physics
that these folded forms are tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .core import Regulator, sigma_tau_factors
from .errors import BeforeSwitchOn, SplitStraddlesStep, ToleranceNotMet, finite
# integrate_realline has no caller here; the benchmark tracer (bench/spans.py) wraps this name.
from .numerics import (
    QuadratureResult,
    QuadratureSpec,
    integrate_halfline,
    integrate_interval,
    integrate_realline,  # noqa: F401
)

__all__ = [
    "StepConfig",
    "BogoliubovPair",
    "bogoliubov",
    "s_k",
    "s_k_deriv",
    "delta_xi_k",
    "pointsplit_integrand",
    "r_k_integrand",
    "mode_reg_density",
    "pointsplit_density",
    "d_term",
    "d_term_value",
    "d_term_quadrature",
]


@dataclass(frozen=True)
class StepConfig:
    """Step height lam (may be negative as long as m^2 + lam > 0) and mass
    m > 0: at zero mass the per-mode 1/omega of the mode sum is not
    integrable at k = 0, and the k = 0 mode has no positive frequency."""

    lam: float
    m: float

    def __post_init__(self):
        if not math.isfinite(self.lam) or not math.isfinite(self.m):
            raise ValueError("lam and m must be finite")
        if self.m <= 0.0:
            raise ValueError(f"m must be > 0, got {self.m}")
        if self.m * self.m + self.lam <= 0.0:
            raise ValueError("need m^2 + lam > 0 so every mode keeps oscillating")


@dataclass(frozen=True)
class BogoliubovPair:
    """Mixing amplitudes across the switch-on: a_k + b_k = 1, b^2 - a^2 = omega/E."""

    a_k: float
    b_k: float


def _freqs(cfg: StepConfig, k: float) -> tuple[float, float]:
    omega = math.hypot(k, cfg.m)
    return omega, math.sqrt(omega * omega + cfg.lam)


def bogoliubov(cfg: StepConfig, k: float) -> BogoliubovPair:
    """Mixing pair of the mode k across the sudden switch-on."""
    omega, big_e = _freqs(cfg, k)
    r = omega / big_e
    return BogoliubovPair(0.5 * (1.0 - r), 0.5 * (1.0 + r))


def s_k(cfg: StepConfig, k: float, t: float) -> complex:
    """Time factor of mode k: pure e^(-i omega t) before the switch, a
    two-frequency mixture after it; value and slope are continuous at t = 0."""
    omega, big_e = _freqs(cfg, k)
    if t < 0.0:
        return cmath.exp(-1j * omega * t)
    pair = bogoliubov(cfg, k)
    return pair.a_k * cmath.exp(1j * big_e * t) + pair.b_k * cmath.exp(-1j * big_e * t)


def s_k_deriv(cfg: StepConfig, k: float, t: float) -> complex:
    """d/dt of s_k."""
    omega, big_e = _freqs(cfg, k)
    if t < 0.0:
        return -1j * omega * cmath.exp(-1j * omega * t)
    pair = bogoliubov(cfg, k)
    return 1j * big_e * (
        pair.a_k * cmath.exp(1j * big_e * t) - pair.b_k * cmath.exp(-1j * big_e * t)
    )


def delta_xi_k(cfg: StepConfig, k: float, t: float) -> float:
    """Per-mode kinetic energy change at t > 0, scaled by the box length."""
    omega, big_e = _freqs(cfg, k)
    return (
        cfg.lam * cfg.lam / (8.0 * omega * big_e * big_e) * (1.0 - math.cos(2.0 * big_e * t))
    )


def pointsplit_integrand(cfg: StepConfig, k: float, t: float, reg: Regulator) -> float:
    """Point-split per-mode density difference (switched minus free), scaled
    by the box length; both split times are taken on the post-switch side.
    Includes the cross term a_k*b_k*cos(2Et) that the two-frequency bilinear
    produces; at coincidence it reduces exactly to delta_xi_k."""
    omega, big_e = _freqs(cfg, k)
    pair = bogoliubov(cfg, k)
    phase_x = cmath.exp(1j * k * reg.eps1)
    mixed = (
        (2.0 * omega * omega + cfg.lam)
        * (
            pair.a_k * pair.a_k * cmath.exp(1j * big_e * reg.eps0)
            + pair.b_k * pair.b_k * cmath.exp(-1j * big_e * reg.eps0)
        )
        - 2.0 * cfg.lam * pair.a_k * pair.b_k * math.cos(2.0 * big_e * t)
    )
    free = 2.0 * omega * omega * cmath.exp(-1j * omega * reg.eps0)
    return (2.0 * ((mixed - free) * phase_x).real) / (8.0 * omega)


def r_k_integrand(cfg: StepConfig, k: float, reg: Regulator, massless: bool = False) -> float:
    """Slowly-decaying remainder split off the point-split integrand, scaled
    by the box length; `massless` replaces omega by |k| (the small-split
    regime in which d_term is derived)."""
    omega = abs(k) if massless else math.hypot(k, cfg.m)
    return -(cfg.lam * reg.eps0 / 4.0) * math.sin(k * reg.eps1 - omega * reg.eps0)


def _folded_pointsplit(cfg: StepConfig, t: float, reg: Regulator) -> Callable[[float], float]:
    """k -> pointsplit_integrand(k) + pointsplit_integrand(-k) on k >= 0,
    times e^(-(omega - k) tau), which turns integrate_halfline's weight
    e^(-k tau) into the cutoff e^(-omega tau).

    The fold is cos(k eps1) Re[mixed - free]/(2 omega).  With
    a^2 + b^2 = (2 omega^2 + lam)/(2 E^2), a b = lam/(4 E^2) and
    E - omega = lam/(E + omega),
        Re[mixed - free] = -4 omega^2 sin((E + omega) eps0/2) sin(lam eps0/(2 (E + omega)))
                           + (lam^2/(2 E^2)) (cos(E eps0) - cos(2 E t)),
    which keeps the terms of size omega^2 in mixed and free from cancelling.
    Likewise omega - k = m^2/(omega + k)."""
    lam, m = cfg.lam, cfg.m
    eps0, eps1 = reg.eps0, reg.eps1
    half_lam2 = 0.5 * lam * lam
    m2_tau = m * m * reg.tau

    def folded(k: float) -> float:
        omega = math.hypot(k, m)
        omega2 = omega * omega
        big_e2 = omega2 + lam
        big_e = math.sqrt(big_e2)
        e_plus = big_e + omega
        # 2 omega^2 (cos(E eps0) - cos(omega eps0)), and the lam^2 remainder
        shift = -4.0 * omega2 * math.sin(0.5 * e_plus * eps0) * math.sin(0.5 * lam * eps0 / e_plus)
        mixing = half_lam2 / big_e2 * (math.cos(big_e * eps0) - math.cos(2.0 * big_e * t))
        cutoff = math.exp(-m2_tau / (omega + k))
        return math.cos(k * eps1) * (shift + mixing) / (2.0 * omega) * cutoff

    return folded


def _folded_remainder(cfg: StepConfig, reg: Regulator, massless: bool) -> Callable[[float], float]:
    """k -> r_k_integrand(k) + r_k_integrand(-k) = (lam eps0/2) cos(k eps1)
    sin(omega eps0) on k >= 0; with a mass, times e^(-m^2 tau/(omega + k)) as
    in _folded_pointsplit."""
    half = 0.5 * cfg.lam * reg.eps0
    eps0, eps1 = reg.eps0, reg.eps1
    if massless:
        return lambda k: half * math.cos(k * eps1) * math.sin(k * eps0)
    m = cfg.m
    m2_tau = m * m * reg.tau

    def folded(k: float) -> float:
        omega = math.hypot(k, m)
        return half * math.cos(k * eps1) * math.sin(omega * eps0) * math.exp(-m2_tau / (omega + k))

    return folded


def _threshold(cfg: StepConfig) -> float:
    """b = sqrt(m^2 + lam), the least frequency after the switch.  m and lam
    are first scaled by powers of 2 to below 1, so m^2 cannot overflow (at
    m >= 1.3e154) and m^2 + lam cancels no rounding but that of m^2, as
    where lam is near -m^2; wherever m*m is a normal float the bits are
    those of sqrt(m*m + lam)."""
    lam, m = cfg.lam, cfg.m
    e = math.frexp(max(m, math.sqrt(abs(lam))))[1]
    ms = math.ldexp(m, -e)
    return math.ldexp(math.sqrt(ms * ms + math.ldexp(lam, -2 * e)), e)


@finite
def mode_reg_density(
    cfg: StepConfig, t: float, spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """Renormalized kinetic energy density at t > 0 from the mode sum.

    The density is (|lam|/8pi) (rho - Re[e^(i (2tb + pi/4)) K]), with
    b = sqrt(m^2 + lam) and no lam^2 formed.  rho = |lam| S/2, with S the
    integral over all k of 1/(omega E^2), elementary after k = m sinh(u):
    (sqrt(lam)/b) asinh(sqrt(lam)/m) for lam >= 0, where asinh(sqrt(lam)/m)
    = ln((b + sqrt(lam))/m) is read from logs if sqrt(lam)/m overflows, and
    (sqrt(-lam)/b) atan(sqrt(-lam)/b) for lam < 0.  K = |lam| J, from
    Re int_b^inf e^(2itE) dE/(E omega k) turned onto E = b + i s^2, past no
    singularity: J = int_0^inf 2 e^(-2ts^2) ds / (E omega sqrt(2b + i s^2)),
    which neither oscillates nor cancels.  J beyond s = R is at most
    e^(-2tR^2)/(2bR^2), as |E| >= s^2, |omega|^2 >= 2bs^2 and
    |2b + i s^2| >= 2b; R takes tol/4 of the error, and the quadrature in
    s = c sinh(v), c = min(sqrt(b), m/sqrt(2b)) the smallest scale on which
    the integrand turns, another tol/4.  ToleranceNotMet names the float
    phase 2tb where the rounding of its exact correction, or its overflow,
    can move the density by more than tol.  Where 2 (|lam|/8pi) rho <= tol,
    the density, which lies in [0, 2 (|lam|/8pi) rho], is
    (|lam|/8pi) rho +- (|lam|/8pi) rho.
    """
    spec = spec or QuadratureSpec()
    if t < 0.0:
        raise BeforeSwitchOn("density is defined after the switch-on, t >= 0")
    if t == 0.0:
        return QuadratureResult(0.0, 0.0)

    lam, m = cfg.lam, cfg.m
    b = _threshold(cfg)
    rl = math.sqrt(abs(lam))
    if lam < 0.0:
        ratio = math.atan(rl / b)
    else:
        ratio = math.asinh(rl / m) if math.isfinite(rl / m) else math.log(b + rl) - math.log(m)
    rho = rl / b * ratio
    weight = abs(lam) / (8.0 * math.pi)
    steady = weight * rho
    tol = max(spec.abs_tol, spec.rel_tol * steady)
    if 2.0 * steady <= tol:
        return QuadratureResult(steady, steady)

    r2b = math.sqrt(2.0 * b)
    c = min(math.sqrt(b), m / r2b)
    ktol = rho * (tol / steady) / 4.0  # K's error counts weight times, so this is tol/4 of it
    # The tail bound is weight |lam| t e^(-x)/(b x) with x = 2tR^2, at most
    # tol/4 where x e^x >= q = |lam| t/(b ktol): at x = ln(1 + q), with ln q from logs.
    ln_q = math.log(abs(lam) / b) + math.log(t) - math.log(ktol)
    x = ln_q if ln_q > 700.0 else math.log1p(math.exp(ln_q))
    gain = 2.0 * abs(lam) / b

    def ray(v: float) -> complex:  # K's integrand in v, ds = c cosh(v) dv; gain/(E/b) = 2|lam|/E
        s = c * math.sinh(v)
        s2 = s * s
        g = max(m, r2b * s, s2)  # omega/g keeps m^2, s^4 and bs^2 in range
        omega_g = cmath.sqrt(complex((m / g) ** 2 - (s2 / g) ** 2, (r2b * s / g) ** 2))
        denom = complex(1.0, s2 / b) * omega_g * cmath.sqrt(complex(2.0 * b, s2))
        return gain * math.exp(-2.0 * t * s2) * (c * math.cosh(v) / g) / denom

    quad_spec = QuadratureSpec(spec.rel_tol, ktol, spec.max_subdivisions)
    quad = integrate_interval(ray, 0.0, math.asinh(math.sqrt(x / (2.0 * t)) / c), quad_spec)
    phase = 2.0 * t * b
    slip, turn = math.inf, 0.0  # where 2tb overflows, K may turn any way
    if math.isfinite(phase):
        # slip = 2t sqrt(m^2 + lam) - phase from the inputs' integer ratios, to
        # 2^-63: with m^2 + lam = n/d, d a power of 2, the root is isqrt(n d 4^j)/(d 2^j)
        (mp, mq), (lp, lq), (tp, tq), (pp, pq) = (f.as_integer_ratio() for f in (m, lam, t, phase))
        n, d, j = mp * mp * lq + lp * mq * mq, mq * mq * lq, 64 + tp.bit_length()
        slip = (2 * tp * pq * math.isqrt(n * d << 2 * j) - (pp * tq * d << j)) / (tq * pq * d << j)
        turn = cmath.rect(1.0, phase) * cmath.rect(1.0, slip + 0.25 * math.pi)
    value = weight * (rho - (turn * quad.value).real)
    # slip, slip + pi/4, their cosine and sine and the products round by
    # about 4 eps (|slip| + 1), and no rotation moves K by more than 2|K|
    rounding = weight * abs(quad.value) * min(2.0, 4.0 * math.ulp(1.0) * (abs(slip) + 1.0))
    err = weight * quad.error_estimate + 0.25 * tol + rounding
    if rounding > tol:
        raise ToleranceNotMet(
            f"mode_reg_density at cfg = {cfg!r}, t = {t!r}: the phase 2tb = {phase!r} is off by "
            f"{slip:.3e}, whose rounding moves the density by up to {rounding:.3e}, above "
            f"tolerance {tol:.3e}",
            value=value, error_estimate=err, evaluations=quad.evaluations,
        )
    return QuadratureResult(value, err, quad.evaluations)


@finite
def pointsplit_density(
    cfg: StepConfig,
    t: float,
    reg: Regulator,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Renormalized point-split density at t > 0 under the cutoff weight.

    Integrates the full subtracted integrand (remainder included) over the
    k-line, as its even fold over k >= 0 (_folded_pointsplit).  At lam = 0
    it is 0.0 for every tau.  Its lam-driven phases E eps0, 2Et and
    (E + omega) eps0/2 are rounded to floats, by about 2^-52 of each in
    radians, and a rounded phase moves a cosine or sine by at most 2.  On
    the terms they multiply, lam^2/(2E^2) and at most
    2 omega^2 |lam| eps0/(E + omega), over 2 omega under the cutoff
    e^(-omega tau), with E >= b = sqrt(m^2 + lam) and
        int e^(-omega tau)/omega dk = K0(m tau) <= e^(-m tau) k0,  k0 = 1 + ln(1 + 1/(m tau)),
        int e^(-omega tau) dk = m K1(m tau) <= e^(-m tau) (1/tau + m),
        int omega e^(-omega tau) dk = m^2 K0(m tau) + m K1(m tau)/tau,
    that moves the density by at most e^(-m tau) |lam|/(2pi) times
        (|lam|/4b) min(2^-52 (eps0 + 2t), 4/b) k0
        + min(2^-53 eps0^2 (m^2 k0 + (1/tau + m)/tau), 2 eps0 (1/tau + m)),
    and ToleranceNotMet names the phase rounding where that exceeds
    max(abs_tol, rel_tol |value|).  Where e^(-m tau) underflows the bound
    is 0, or nan where a term overflows, and neither exceeds it.
    """
    spec = spec or QuadratureSpec()
    if reg.eps0 >= 2.0 * t:
        raise SplitStraddlesStep(
            f"need eps0 < 2t so both split times stay past the switch; got "
            f"eps0 = {reg.eps0}, t = {t}"
        )
    if cfg.lam == 0.0:
        return QuadratureResult(0.0, 0.0)

    quad = integrate_halfline(_folded_pointsplit(cfg, t, reg), reg.tau, spec)
    two_pi = 2.0 * math.pi
    value, err = quad.value / two_pi, quad.error_estimate / two_pi
    lam, m, eps0, tau = abs(cfg.lam), cfg.m, reg.eps0, reg.tau
    b = _threshold(cfg)
    k0 = 1.0 + math.log1p(m * tau) - math.log(m) - math.log(tau)
    mixing = lam / (4.0 * b) * min(math.ldexp(eps0 + 2.0 * t, -52), 4.0 / b) * k0
    e_tau, e_m = eps0 / tau, m * eps0
    shift = min(math.ldexp(e_m * e_m * k0 + e_tau * (e_tau + e_m), -53), 2.0 * (e_tau + e_m))
    rounding = math.exp(-m * tau) * lam / two_pi * (mixing + shift)
    tol = max(spec.abs_tol, spec.rel_tol * abs(value))
    if rounding > tol:
        raise ToleranceNotMet(
            f"pointsplit_density at cfg = {cfg!r}, t = {t!r}, reg = {reg!r}: the phase "
            f"rounding in E eps0, 2Et and (E + omega) eps0/2 moves the density by up to "
            f"{rounding:.3e}, above tolerance {tol:.3e}",
            value=value, error_estimate=err, evaluations=quad.evaluations,
        )
    return QuadratureResult(value, err, quad.evaluations)


@finite
def d_term_value(lam: float, eps0: float, eps1: float, tau: float) -> float:
    """-(lam/4pi) Re[eps0 (eps0 - i*tau)/sigma_tau] = -(lam/4pi) h^2 (A - b^2),
    the remainder's cutoff integral at small split (omega -> |k|): degree-0
    homogeneous, even in tau."""
    _, h, b, a, *_ = sigma_tau_factors(eps0, eps1, tau)
    return -(lam / (4.0 * math.pi)) * (h * h * (a - b * b))


def d_term(cfg: StepConfig, reg: Regulator) -> float:
    """Cutoff integral of r_k_integrand; the point split carries minus it."""
    return d_term_value(cfg.lam, reg.eps0, reg.eps1, reg.tau)


@finite
def d_term_quadrature(
    cfg: StepConfig,
    reg: Regulator,
    spec: QuadratureSpec | None = None,
    massless: bool = True,
) -> QuadratureResult:
    """Direct cutoff quadrature of the remainder integrand over the k-line,
    as its even fold over k >= 0 (_folded_remainder).

    With massless=True both the integrand and the cutoff use |k| in place of
    omega, matching the regime in which d_term is exact; with massless=False
    the physical omega is kept, which measures the finite-mass correction to
    d_term."""
    quad = integrate_halfline(_folded_remainder(cfg, reg, massless), reg.tau, spec)
    return QuadratureResult(
        quad.value / (2.0 * math.pi), quad.error_estimate / (2.0 * math.pi), quad.evaluations
    )
