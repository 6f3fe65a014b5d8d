"""Oracle-vs-closed-form self checks, runnable from the CLI.

Each check recomputes a closed form against an independent numerical route
(quadrature, brute-force mode sums, extrapolation) and reports one PASS/FAIL
line.  The checks of a quadrature against a closed form also hold its error
estimate to account: err/bound, |closed - quad| / (error_estimate +
8 eps |closed|), must stay at or below 1 at every point.  INFO lines report
measured discrepancies that are findings rather than failures: places where
an independently derived integrand disagrees with a commonly quoted variant,
and the finite-cutoff convergence rate of the mode-sum/point-split
comparison.

Every oracle lives here once.  A check whose acceptance criterion runs a
finer grid or more draws takes that grid or its source of draws as an
argument, and its default is the coarse set `regulab selftest` runs.  The
acceptance tests (tests/test_acceptance.py) call these checks:

    criterion 1   check_static_remainder_closed_form(taus, fractions)
    criterion 2   check_dterm_closed_form(taus, fractions)
    criterion 3   check_equivalence_trend() of point split + d_term - mode
                  sum, after the test has checked cutoff_slope_series
                  against scipy's closed form
    criterion 4   check_ratio_regimes()
    criterion 7   check_vacuum_tvv(dvs, taus)
    criterion 8   check_qi_gaussian()
    criterion 10  check_xi_consistency(rng, n)

xi_brute_force is also the oracle for tests/test_static_well.py::TestXi.
Criteria 5, 6 and 9 measure other quantities than flanagan-orders and
mode-identities (a family of maps, scaled errors, tighter bounds), so they
stay in the test file.
"""

from __future__ import annotations

import cmath
import math
import random
import sys

from .core import Regulator
from .flanagan import ConformalMap, WeightFunction, delta_flanagan, delta_pointsplit, delta_tau, qi_bound_rhs, vacuum_tvv
from .numerics import LimitKind, QuadratureSpec, classify_limit, integrate_halfline
from .regulator_lab import AmbiguityExpr, LimitPath, scan_path
from .static_well import WellConfig, mode_solution, r_integral_closed, r_omega, xi_lambda
from .time_step import (
    StepConfig,
    bogoliubov,
    d_term,
    d_term_quadrature,
    mode_reg_density,
    pointsplit_density,
    pointsplit_integrand,
    s_k,
    s_k_deriv,
)

__all__ = ["run_all", "CHECKS"]


def _miss_ratio(exact, value, error_estimate) -> float:
    """err/bound = |exact - value| / (error_estimate + 8 eps |exact|): at most
    1 when the error estimate covers the true error up to rounding."""
    miss = abs(exact - value)
    if miss == 0.0:
        return 0.0
    return miss / (error_estimate + 8.0 * sys.float_info.epsilon * abs(exact))


def check_halfline_examples():
    spec = QuadratureSpec()
    cases = (
        (lambda w: 1.0, 1.0, 1.0),
        (lambda w: w, 0.5, 4.0),
        (lambda w: w * cmath.exp(-0.3j * w), 0.1, complex(-8.0, -6.0)),
    )
    worst = ratio = 0.0
    for f, tau, exact in cases:
        res = integrate_halfline(f, tau, spec)
        worst = max(worst, abs(res.value - exact))
        ratio = max(ratio, _miss_ratio(exact, res.value, res.error_estimate))
    return worst < 1e-8 and ratio <= 1.0, (
        f"cutoff integrals vs closed forms: max |err| = {worst:.2e}, "
        f"worst err/bound = {ratio:.2g}"
    )


def _worst_on_grid(closed, quad, taus, fractions) -> tuple[float, float]:
    """Worst |closed - quad| / |closed| and worst _miss_ratio over
    Regulator(f0*tau, f1*tau, tau) for tau in taus and f0, f1 in fractions;
    quad returns a QuadratureResult."""
    worst = ratio = 0.0
    for tau in taus:
        for f0 in fractions:
            for f1 in fractions:
                reg = Regulator(f0 * tau, f1 * tau, tau)
                exact = closed(reg)
                res = quad(reg)
                worst = max(worst, abs(exact - res.value) / max(abs(exact), 1e-12))
                ratio = max(ratio, _miss_ratio(exact, res.value, res.error_estimate))
    return worst, ratio


def check_static_remainder_closed_form(taus=(0.01, 0.1, 1.0), fractions=(0.0, 0.25, 0.5)):
    cfg = WellConfig(1.0, 1.0)
    spec = QuadratureSpec()
    worst, ratio = _worst_on_grid(
        lambda reg: r_integral_closed(cfg, reg),
        lambda reg: integrate_halfline(lambda w: r_omega(cfg, w, reg), reg.tau, spec),
        taus,
        fractions,
    )
    return worst < 1e-6 and ratio <= 1.0, (
        f"static remainder closed form vs quadrature: worst rel = {worst:.2e}, "
        f"worst err/bound = {ratio:.2g}"
    )


def check_dterm_closed_form(taus=(0.01, 0.1, 1.0), fractions=(0.0, 0.25, 0.5)):
    cfg = StepConfig(1.0, 1.0)
    spec = QuadratureSpec()
    worst, ratio = _worst_on_grid(
        lambda reg: d_term(cfg, reg),
        lambda reg: d_term_quadrature(cfg, reg, spec, massless=True),
        taus,
        fractions,
    )
    return worst < 1e-6 and ratio <= 1.0, (
        f"small-split gap closed form vs quadrature: worst rel = {worst:.2e}, "
        f"worst err/bound = {ratio:.2g}"
    )


def info_dterm_mass_correction():
    cfg = StepConfig(1.0, 1.0)
    reg = Regulator(0.001, 0.002, 0.05)
    massless = d_term_quadrature(cfg, reg, massless=True).value
    massive = d_term_quadrature(cfg, reg, massless=False).value
    return True, (
        "finite-mass correction to the small-split gap at "
        f"(0.001, 0.002, 0.05): massless {massless:.6e}, with omega(k) "
        f"{massive:.6e}, difference {massive - massless:+.3e}"
    )


def check_mode_identities():
    rng = random.Random(7)
    worst_sum = worst_ratio = 0.0
    for _ in range(200):
        cfg = StepConfig(rng.uniform(0.0, 5.0), rng.uniform(0.1, 3.0))
        k = rng.uniform(-20.0, 20.0)
        pair = bogoliubov(cfg, k)
        omega = math.hypot(k, cfg.m)
        big_e = math.sqrt(omega**2 + cfg.lam)
        worst_sum = max(worst_sum, abs(pair.a_k + pair.b_k - 1.0))
        worst_ratio = max(
            worst_ratio, abs(pair.b_k**2 - pair.a_k**2 - omega / big_e)
        )
        jump_v = abs(s_k(cfg, k, 0.0) - 1.0)
        jump_d = abs(s_k_deriv(cfg, k, 0.0) - (-1j * omega))
        worst_sum = max(worst_sum, jump_v, jump_d / max(1.0, omega))
    ok = worst_sum < 1e-13 and worst_ratio < 1e-15
    return ok, (
        f"Bogoliubov identities and switch-on continuity: "
        f"worst sum/continuity {worst_sum:.2e}, worst b^2-a^2 {worst_ratio:.2e}"
    )


def xi_brute_force(cfg: WellConfig, omega: float, reg: Regulator, x: float) -> float:
    """Independent route to xi_lambda: build both mode functions as complex
    interior waves from their amplitude alone and apply the defining bilinear."""
    lam, a = cfg.lam, cfg.a
    q = cmath.sqrt(complex(omega * omega - lam, 0.0))
    y1 = x + reg.eps1 / 2.0
    y1p = x - reg.eps1 / 2.0
    total = 0.0
    for j in (1, 2):
        amp_sq = mode_solution(cfg, j, omega).amp_sq
        amp = cmath.sqrt(complex(amp_sq, 0.0))
        if j == 1:
            chi = lambda u: amp * cmath.cos(u * q)
            dchi = lambda u: -amp * q * cmath.sin(u * q)
        else:
            chi = lambda u: amp * cmath.sin(u * q)
            dchi = lambda u: amp * q * cmath.cos(u * q)
        pref = cmath.exp(-1j * omega * reg.eps0) / (8.0 * math.pi * omega)
        z = pref * (
            omega * omega * chi(y1) * chi(y1p).conjugate()
            + dchi(y1) * dchi(y1p).conjugate()
        )
        total += 2.0 * z.real
    return total


def check_xi_consistency(rng=None, n=50):
    """n random (omega, eps0, eps1, x), drawn with rng.uniform(lo, hi);
    rng defaults to a fresh random.Random(11)."""
    cfg = WellConfig(1.0, 1.0)
    rng = rng or random.Random(11)
    worst = 0.0
    for _ in range(n):
        omega = rng.uniform(0.05, 12.0)
        if abs(omega * omega - cfg.lam) < 1e-3:
            omega += 0.1
        reg = Regulator(rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3), 0.0)
        x = rng.uniform(-0.8, 0.8)
        worst = max(
            worst, abs(xi_lambda(cfg, omega, reg, x) - xi_brute_force(cfg, omega, reg, x))
        )
    return worst < 1e-12, (
        f"fused interior density vs per-mode bilinear: worst |diff| = {worst:.2e}"
    )


def info_xi_displayed_variants():
    cfg = WellConfig(1.0, 1.0)
    omega, x = 2.0, 0.3
    reg = Regulator(0.02, 0.01, 0.0)
    ours = xi_lambda(cfg, omega, reg, x)
    a1 = mode_solution(cfg, 1, omega).amp_sq
    a2 = mode_solution(cfg, 2, omega).amp_sq
    q = math.sqrt(omega**2 - cfg.lam)
    flipped = (2.0 * math.cos(omega * reg.eps0) / (8.0 * math.pi)) * (
        (a1 + a2) * (omega - cfg.lam / (2 * omega)) * math.cos(reg.eps1 * q)
        + (a2 - a1) * (cfg.lam / (2 * omega)) * math.cos(2 * x * q)
    )
    return True, (
        "interior density interference term carries the opposite sign to one "
        f"commonly quoted closed form: derived {ours:.9f}, sign-flipped "
        f"variant {flipped:.9f} (difference {ours - flipped:+.3e}); the "
        "per-mode route also needs prefactor 1/(8 pi omega), not 1/(4 pi omega)"
    )


def info_pointsplit_cross_term():
    cfg = StepConfig(1.0, 1.0)
    k, t = 2.7, 0.9
    reg = Regulator(0.11, 0.07, 0.0)
    full = pointsplit_integrand(cfg, k, t, reg)
    pair = bogoliubov(cfg, k)
    omega = math.hypot(k, cfg.m)
    big_e = math.sqrt(omega**2 + cfg.lam)
    cross = (
        2.0
        * (-2.0 * cfg.lam * pair.a_k * pair.b_k * math.cos(2.0 * big_e * t)
           * cmath.exp(1j * k * reg.eps1)).real
        / (8.0 * omega)
    )
    return True, (
        "the two-frequency bilinear keeps an a_k*b_k*cos(2Et) cross term that "
        "a commonly quoted form drops; without it the coincidence limit would "
        f"not reduce to the per-mode energy change (size here: {cross:+.3e} "
        f"of a total {full:+.3e})"
    )


def cutoff_slope_series(lam: float, m: float, t: float) -> float:
    """c1 such that the cutoff weight shifts the per-mode part of the
    point-split density at first order in tau by c1*tau:
    c1 = -(lam^2/(16 b)) int_0^x J0, x = 2bt, b = sqrt(m^2 + lam), with
    int_0^x J0 from its power series sum_k (-1)^k (x/2)^(2k) x / ((k!)^2 (2k+1));
    40 terms reach rounding for x up to a few units."""
    b = math.sqrt(m * m + lam)
    x = 2.0 * b * t
    term = 1.0
    int_j0 = 0.0
    for k in range(40):
        int_j0 += term * x / (2 * k + 1)
        term *= -(0.5 * x) ** 2 / ((k + 1) * (k + 1))
    return -(lam * lam / (16.0 * b)) * int_j0


def check_equivalence_trend():
    lam, m, t = 1.0, 1.0, 1.0
    cfg = StepConfig(lam, m)
    spec = QuadratureSpec(rel_tol=1e-9)
    mode = mode_reg_density(cfg, t, spec).value
    c1 = cutoff_slope_series(lam, m, t)
    schedule = (0.2, 0.1, 0.05)
    residuals = []
    for s in schedule:
        reg = Regulator(s * s, s * s, s)
        ps = pointsplit_density(cfg, t, reg, spec).value
        residuals.append(ps + d_term(cfg, reg) - mode)  # the point split carries -d_term
    r0, r1, r2 = (abs(r) for r in residuals)
    monotone = r0 > r1 > r2
    rel_raw = r2 / abs(mode)
    rel = abs(residuals[-1] - c1 * schedule[-1]) / abs(mode)
    detail = (
        "point-split plus d_term minus mode-sum along eps=(s^2,s^2), tau=s: "
        f"|r| {r0:.3e} > {r1:.3e} > {r2:.3e} (monotone: {monotone}); at s=0.05 "
        f"r is {rel_raw:.1%} of the mode-sum value, and taking out the cutoff's "
        f"first-order term c1*tau (c1 = {c1:.7f}) leaves {rel:.2%} (needs < 1%)"
    )
    return monotone and rel < 1e-2, detail


def check_flanagan_orders():
    V = ConformalMap.from_text("exp(v)")
    taylor = delta_flanagan(V, 0.0)
    tau_first = delta_tau(V, 0.0, 0.1)
    target = -1.0 / (48.0 * math.pi)
    exact_disagreement = tau_first == 0.0 and abs(taylor - target) < 1e-12
    worst = 0.0
    for tau in (0.01, 0.3, 2.0):
        a = delta_pointsplit(V, 0.7, 0.7, tau)
        b = delta_tau(V, 0.7, tau)
        worst = max(worst, abs(a.real - b) / abs(b), abs(a.imag))
    deltas = [0.2 * 2.0**-j for j in range(7)]
    rich = classify_limit(
        [(d, delta_pointsplit(V, 0.3, 0.3 - d, 0.0)) for d in deltas]
    )
    rich_ok = rich.kind is LimitKind.FINITE and abs(
        rich.value.real - delta_flanagan(V, 0.3)
    ) < 1e-7
    ok = exact_disagreement and worst < 1e-14 and rich_ok
    return ok, (
        f"order of limits: split-first gives {taylor:.9f}, cutoff-first gives "
        f"{tau_first}; coincidence identity worst rel {worst:.2e}; "
        f"extrapolated split-first limit matches to "
        f"{abs(rich.value.real - delta_flanagan(V, 0.3)):.2e}"
    )


def check_vacuum_tvv(dvs=(0.1, 1.0), taus=(0.05, 0.5)):
    spec = QuadratureSpec()
    worst = ratio = 0.0
    for dv in dvs:
        for tau in taus:
            closed = vacuum_tvv(dv, 0.0, tau)
            quad = integrate_halfline(lambda w: w * cmath.exp(-1j * w * dv), tau, spec)
            value = quad.value / (4.0 * math.pi)
            worst = max(worst, abs(closed - value) / abs(closed))
            ratio = max(ratio, _miss_ratio(closed, value, quad.error_estimate / (4.0 * math.pi)))
    return worst < 1e-8 and ratio <= 1.0, (
        f"vacuum density closed form vs quadrature: worst rel = {worst:.2e}, "
        f"worst err/bound = {ratio:.2g}"
    )


def check_qi_gaussian():
    rho = WeightFunction.from_text("exp(-(x/2)^2)/(2*sqrt(pi))", (-30.0, 30.0))
    res = qi_bound_rhs(rho)
    target = -1.0 / (48.0 * math.pi)
    rho_half = WeightFunction.from_text("exp(-(x/1)^2)/(1*sqrt(pi))", (-20.0, 20.0))
    res_half = qi_bound_rhs(rho_half)
    bound, scale = res.value, res_half.value / res.value
    ratio = max(
        _miss_ratio(target, bound, res.error_estimate),
        _miss_ratio(4.0 * target, res_half.value, res_half.error_estimate),
    )
    ok = abs(bound - target) < 1e-8 and abs(scale - 4.0) < 1e-8 and ratio <= 1.0
    return ok, (
        f"gaussian bound {bound:.9f} vs analytic {target:.9f} (off by "
        f"{abs(bound - target):.2e}); halving the width scales it by {scale:.9f} "
        f"(off by {abs(scale - 4.0):.2e}); worst err/bound = {ratio:.2g}"
    )


def check_ratio_regimes():
    sched = [0.2 * 2.0**-j for j in range(8)]
    expr = AmbiguityExpr.ratio239()
    fast_tail = scan_path(expr, LimitPath(2, 1, 2), sched)
    fast_split = scan_path(expr, LimitPath(1, 2, 1), sched)
    null_split = scan_path(expr, LimitPath(1, 1, 1, ctau=0.0), sched)
    gap = scan_path(AmbiguityExpr.d_term616(1.0), LimitPath(2, 2, 1), sched)
    ok = (
        fast_tail.outcome.kind is LimitKind.FINITE
        and abs(fast_tail.outcome.value - 1.0) < 1e-6
        and fast_split.outcome.kind is LimitKind.FINITE
        and abs(fast_split.outcome.value) < 1e-6
        and null_split.outcome.kind is LimitKind.DIVERGENT
        and null_split.outcome.confidence == 0.0
        and gap.outcome.kind is LimitKind.FINITE
        and abs(gap.outcome.value) < 1e-6
    )
    return ok, (
        "split-ratio regimes -> 1 (off by "
        f"{abs(fast_tail.outcome.value - 1.0):.2e}), 0 (off by "
        f"{abs(fast_split.outcome.value):.2e}), divergent (on-path singularity "
        f"at s={null_split.singular_s}); recommended path sends the "
        f"mode-vs-pointsplit gap to {abs(gap.outcome.value):.2e}"
    )


CHECKS = [
    ("halfline-examples", check_halfline_examples),
    ("static-remainder-closed-form", check_static_remainder_closed_form),
    ("small-split-gap-closed-form", check_dterm_closed_form),
    ("mode-identities", check_mode_identities),
    ("interior-density-consistency", check_xi_consistency),
    ("equivalence-trend", check_equivalence_trend),
    ("flanagan-orders", check_flanagan_orders),
    ("vacuum-density", check_vacuum_tvv),
    ("qi-gaussian-bound", check_qi_gaussian),
    ("limit-regimes", check_ratio_regimes),
]

INFOS = [
    ("small-split-gap-mass-correction", info_dterm_mass_correction),
    ("interior-density-displayed-variants", info_xi_displayed_variants),
    ("pointsplit-integrand-cross-term", info_pointsplit_cross_term),
]


def run_all(write=print) -> bool:
    """Run every check, emit one line each, and return overall success."""
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn()
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    for name, fn in INFOS:
        _, detail = fn()
        write(f"INFO {name}: {detail}")
    write(f"{'OK' if all_ok else 'FAILED'}: {len(CHECKS)} checks")
    return all_ok
