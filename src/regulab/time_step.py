"""Sudden switch-on of a constant potential: mode-sum vs point-split density.

At t = 0 the potential jumps from 0 to lam, so each travelling mode of
frequency omega = sqrt(k^2 + m^2) continues with frequency
E = sqrt(omega^2 + lam) and a Bogoliubov mixture of both signs.  The
renormalized kinetic energy density can then be computed two ways:

* mode_reg_density sums the per-mode energy change directly (no splitting);
* pointsplit_density point-splits the two-point function with offsets
  (eps0, eps1) and a frequency cutoff tau.

mode_reg_density integrates the cos(2Et) part of the mode sum up to a cut K.
Beyond it, in E with c = 2t and G = 1/(E omega k), the tail is
-G sin(cX)/c - G' cos(cX)/c^2 + G'' sin(cX)/c^3 + R at X = E(K).  With
L = (ln G)' = -1/E - E/omega^2 - E/k^2, G''' = G (L^3 + 3 L L' + L'') < 0 <
G'''' wherever E^2 + lam, E^2 + 3 lam and E^4 + 6 lam E^2 + lam^2 are > 0
(for all E if lam >= 0, for E^2 >= 6|lam| if not), so |R| <= 2|G'''(X)|/c^4.

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
from .errors import NonFiniteResult, SplitStraddlesStep
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


def _tail(cfg: StepConfig, t: float, k: float) -> tuple[float, float]:
    """Three integration-by-parts terms of the integral of cos(2Et)/(omega E^2)
    over k > K, and the bound 2|G'''(E(K))|/(2t)^4 on the rest (see above)."""
    lam, mu = cfg.lam, cfg.m * cfg.m + cfg.lam
    k2 = k * k
    w2 = k2 + cfg.m * cfg.m
    e2 = k2 + mu
    e = math.sqrt(e2)
    g = 1.0 / (e * math.sqrt(w2) * k)
    l0 = -1.0 / e - e / w2 - e / k2  # L, and its derivatives L' and L''
    l1 = 1.0 / e2 + (e2 + lam) / (w2 * w2) + (e2 + mu) / (k2 * k2)
    l2 = -2.0 / (e * e2) - 2.0 * e * (
        (e2 + 3.0 * lam) / (w2 * w2 * w2) + (e2 + 3.0 * mu) / (k2 * k2 * k2)
    )
    g3 = g * (l0 * l0 * l0 + 3.0 * l0 * l1 + l2)
    c = 2.0 * t
    sin_cx, cos_cx = math.sin(c * e), math.cos(c * e)
    value = (-sin_cx - l0 * cos_cx / c + (l0 * l0 + l1) * sin_cx / (c * c)) * g / c
    return value, 2.0 * abs(g3) / (c * c * c * c)


def mode_reg_density(
    cfg: StepConfig, t: float, spec: QuadratureSpec | None = None
) -> QuadratureResult:
    """Renormalized kinetic energy density at t > 0 from the mode sum.

    The non-oscillatory piece of the k-integral is elementary.  The cos(2Et)
    piece is integrated adaptively in u = asinh(k/m) up to a cut K, and its
    tail beyond K is three terms of its integration by parts (_tail).  K is
    the smallest cut, with E(K)^2 >= 6|lam|, whose bound on the rest takes
    tol/2 of the error; the quadrature's absolute tolerance is the other half.
    """
    spec = spec or QuadratureSpec()
    if t < 0.0:
        raise ValueError("density is defined after the switch-on, t >= 0")
    if t == 0.0 or cfg.lam == 0.0:
        return QuadratureResult(0.0, 0.0)

    pref = cfg.lam * cfg.lam / (16.0 * math.pi)
    steady = _constant_part_integral(cfg)
    scale = pref * steady
    tol = max(spec.abs_tol, spec.rel_tol * scale)
    # The cut is where _tail's bound is tol/(4 pref), its share tol/2 of the
    # error.  The bound falls like 7.5/(t^4 K^6) far out and like
    # 15 mu/(8 m t^4 K^7) as K -> 0, which put the cut near ratio^(1/6) and
    # (mu ratio/(4m))^(1/7); from the larger, steps by the 7th root of the
    # bound's ratio to tol/(4 pref) find it.
    c2 = 4.0 * t * t
    try:  # 30 pref/(t^4 tol), with (2t)^4 finite when it is
        ratio = 480.0 * pref / (c2 * c2 * tol)
    except ZeroDivisionError:  # t^4 tol underflowed
        ratio = math.inf

    def checked(k: float, name: str) -> float:  # t^4 overflowed, say, lambda^2 underflowed or _tail's bound overflowed
        if 0.0 < k < math.inf:
            return k
        raise OverflowError(f"mode_reg_density at t = {t!r}: the tail cut {name} is {k}, "
                            "since a factor of it overflowed or underflowed")

    k_cut = checked(ratio ** (1.0 / 6.0), "(30 pref/(t^4 tol))^(1/6)")
    k_floor = math.sqrt(max(0.0, -7.0 * cfg.lam - cfg.m * cfg.m))  # E^2 >= 6|lam|
    mu = cfg.m * cfg.m + cfg.lam
    k_cut = max(k_floor, k_cut, (mu / (4.0 * cfg.m)) ** (1.0 / 7.0) * ratio ** (1.0 / 7.0))
    for _ in range(20):  # 9 steps at most on 20,000 draws
        k_next = checked(max(k_floor, k_cut * (_tail(cfg, t, k_cut)[1] * 4.0 * pref / tol) ** (1.0 / 7.0)), "one step on")
        if abs(k_next - k_cut) <= 1e-6 * k_cut:
            break
        k_cut = k_next

    def oscillating(u: float) -> float:  # cos(2Et)/(omega E^2) dk, with dk = omega du
        w = cfg.m * math.cosh(u)
        big_e2 = w * w + cfg.lam
        return math.cos(2.0 * math.sqrt(big_e2) * t) / big_e2

    # the value counts the integral's error 2 pref times, so this is tol/2 of it
    quad_spec = QuadratureSpec(spec.rel_tol, tol / (4.0 * pref), spec.max_subdivisions)
    quad = integrate_interval(oscillating, 0.0, math.asinh(k_cut / cfg.m), quad_spec)
    tail, tail_err = _tail(cfg, t, k_cut)
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
    k-line, as its even fold over k >= 0 (_folded_pointsplit).  At lam = 0
    it is 0.0 for every tau.
    """
    if reg.eps0 >= 2.0 * t:
        raise SplitStraddlesStep(
            f"need eps0 < 2t so both split times stay past the switch; got "
            f"eps0 = {reg.eps0}, t = {t}"
        )
    if cfg.lam == 0.0:
        return QuadratureResult(0.0, 0.0)

    quad = integrate_halfline(_folded_pointsplit(cfg, t, reg), reg.tau, spec)
    two_pi = 2.0 * math.pi
    return QuadratureResult(
        quad.value / two_pi, quad.error_estimate / two_pi, quad.evaluations
    )


def d_term_value(lam: float, eps0: float, eps1: float, tau: float) -> float:
    """-(lam/4pi) Re[eps0 (eps0 - i*tau)/sigma_tau] = -(lam/4pi) h^2 (A - b^2),
    the remainder's cutoff integral at small split (omega -> |k|): degree-0
    homogeneous, even in tau.  NonFiniteResult where it overflows."""
    _, h, b, a, *_ = sigma_tau_factors(eps0, eps1, tau)
    if math.isinf(value := -(lam / (4.0 * math.pi)) * (h * h * (a - b * b))):
        raise NonFiniteResult(f"d_term at (eps0, eps1, tau) = ({eps0}, {eps1}, {tau}), lam = {lam!r}: it overflows")
    return value


def d_term(cfg: StepConfig, reg: Regulator) -> float:
    """Cutoff integral of r_k_integrand; the point split carries minus it."""
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
