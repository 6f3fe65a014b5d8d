"""Sudden switch-on of a constant potential: mode-sum vs point-split density.

At t = 0 the potential jumps from 0 to lam, so each travelling mode of
frequency omega = sqrt(k^2 + m^2) continues with frequency
E = sqrt(omega^2 + lam) and a Bogoliubov mixture of both signs.  The
renormalized kinetic energy density can then be computed two ways:

* mode_reg_density sums the per-mode energy change directly (no splitting);
* pointsplit_density point-splits the two-point function with offsets
  (eps0, eps1) and a frequency cutoff tau.

Their difference is carried by a slowly-decaying remainder of the point-split
integrand whose cutoff integral, in the small-split regime, is the closed
form d_term; d_term depends only on how (eps0, eps1, tau) -> 0.

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

from .core import Regulator
from .errors import (
    InvalidCutoff,
    SingularRegulator,
    SplitStraddlesStep,
    ZeroFrequency,
)
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
    """Step height lam (may be negative as long as m^2 + lam > 0) and mass m."""

    lam: float
    m: float

    def __post_init__(self):
        if not math.isfinite(self.lam) or not math.isfinite(self.m):
            raise ValueError("lam and m must be finite")
        if self.m < 0.0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.m * self.m + self.lam <= 0.0:
            raise ValueError("need m^2 + lam > 0 so every mode keeps oscillating")


@dataclass(frozen=True)
class BogoliubovPair:
    """Mixing amplitudes across the switch-on: a_k + b_k = 1, b^2 - a^2 = omega/E."""

    a_k: float
    b_k: float


def _freqs(cfg: StepConfig, k: float) -> tuple[float, float]:
    omega = math.hypot(k, cfg.m)
    if omega == 0.0:
        raise ZeroFrequency("k = 0 with m = 0 has no positive frequency")
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


def _constant_part_integral(cfg: StepConfig) -> float:
    """Closed form of the non-oscillatory integral over all k of
    1/(omega * E^2): elementary after k = m*sinh(u).  Needs lam != 0:
    mode_reg_density returns 0 before calling it at lam = 0."""
    lam, m = cfg.lam, cfg.m
    b = math.sqrt(m * m + lam)
    if lam > 0.0:
        rl = math.sqrt(lam)
        return 2.0 * math.atanh(rl / b) / (rl * b)
    rl = math.sqrt(-lam)
    return 2.0 * math.atan(rl / b) / (rl * b)


def mode_reg_density(
    cfg: StepConfig, t: float, spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """Renormalized kinetic energy density at t > 0 from the mode sum.

    The non-oscillatory piece of the k-integral is elementary; the cos(2Et)
    piece is integrated adaptively up to a cut K and its tail beyond K is
    taken from two integrations by parts: the leading term is added, and the
    bound on the rest, which falls like 1/(t^2 K^4), sets K.  Requires m > 0:
    at zero mass the per-mode 1/omega makes the integrand non-integrable at
    k = 0.
    """
    spec = spec or QuadratureSpec()
    if cfg.m <= 0.0:
        raise ValueError("mode_reg_density requires m > 0")
    if t < 0.0:
        raise ValueError("density is defined after the switch-on, t >= 0")
    if t == 0.0 or cfg.lam == 0.0:
        return QuadratureResult(0.0, 0.0)

    pref = cfg.lam * cfg.lam / (16.0 * math.pi)
    steady = _constant_part_integral(cfg)
    scale = pref * steady
    tol = max(spec.abs_tol, spec.rel_tol * scale)
    # With g = 1/(omega E^2), h = 2Et and u = g/h' = 1/(2t k omega E), the
    # tail of g cos h beyond K is -u(K) sin h(K) + R with |R| <= 2|u'/h'|(K),
    # since |u'/h'| = (1/k + k/omega^2 + k/E^2)/(4 t^2 k^2 omega) falls
    # monotonically; omega, E >= k bound it by 3/(4 t^2 K^4), so this K puts
    # the tail's share of the error at tol/2.
    k_cut = (6.0 * pref / (t * t * tol)) ** 0.25

    def oscillating(k: float) -> float:
        omega = math.hypot(k, cfg.m)
        big_e2 = omega * omega + cfg.lam
        return math.cos(2.0 * math.sqrt(big_e2) * t) / (omega * big_e2)

    quad = integrate_interval(oscillating, 0.0, k_cut, spec)
    omega_cut = math.hypot(k_cut, cfg.m)
    e_cut = math.sqrt(omega_cut * omega_cut + cfg.lam)
    u = 1.0 / (2.0 * t * k_cut * omega_cut * e_cut)
    du = -u * (1.0 / k_cut + k_cut / omega_cut**2 + k_cut / e_cut**2)
    tail = -u * math.sin(2.0 * e_cut * t)
    tail_err = 2.0 * abs(du) * e_cut / (2.0 * t * k_cut)
    value = pref * (steady - 2.0 * (quad.value + tail))
    err = pref * 2.0 * (quad.error_estimate + tail_err)
    return QuadratureResult(value, err, quad.evaluations)


def pointsplit_density(
    cfg: StepConfig,
    t: float,
    reg: Regulator,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Renormalized point-split density at t > 0 under the cutoff weight.

    Integrates the full subtracted integrand (remainder included) over the
    k-line, as its even fold over k >= 0 (_folded_pointsplit).
    """
    spec = spec or QuadratureSpec()
    if not (reg.tau > 0.0):
        raise InvalidCutoff(f"tau must be > 0, got {reg.tau}")
    if reg.eps0 >= 2.0 * t:
        raise SplitStraddlesStep(
            f"need eps0 < 2t so both split times stay past the switch; got "
            f"eps0 = {reg.eps0}, t = {t}"
        )
    if cfg.m <= 0.0:
        raise ValueError("pointsplit_density requires m > 0")
    if cfg.lam == 0.0:
        return QuadratureResult(0.0, 0.0)

    quad = integrate_halfline(_folded_pointsplit(cfg, t, reg), reg.tau, spec)
    two_pi = 2.0 * math.pi
    return QuadratureResult(
        quad.value / two_pi, quad.error_estimate / two_pi, quad.evaluations
    )


def d_term_value(lam: float, eps0: float, eps1: float, tau: float) -> float:
    """Closed form of the remainder's cutoff integral in the small-split
    regime (omega -> |k|); homogeneous of degree 0 in (eps0, eps1, tau)."""
    den = complex(eps1 * eps1 - eps0 * eps0 + tau * tau, 2.0 * eps0 * tau)
    if den == 0:
        raise SingularRegulator(
            f"eps1^2 - eps0^2 + tau^2 and eps0*tau both vanish at "
            f"({eps0}, {eps1}, {tau})"
        )
    return -(lam * eps0 / (8.0 * math.pi)) * 2.0 * (complex(eps0, -tau) / den).real


def d_term(cfg: StepConfig, reg: Regulator) -> float:
    """Regulator-dependent gap between point-split and mode-sum densities."""
    return d_term_value(cfg.lam, reg.eps0, reg.eps1, reg.tau)


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
