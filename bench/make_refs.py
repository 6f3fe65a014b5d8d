"""Write refs.json: reference values for the operations that have no closed form.

    PYTHONPATH=src python3 bench/make_refs.py

The input pools are a fixed stratified design (the benchmark's --seed only
chooses among pool entries).  Each value is computed by regulab at a
relative tolerance 100x tighter than the one the benchmark runs at; a sample
is cross-checked against scipy quadrature of the same integrand, and the
largest deviations are stored in the table's `meta`.  scipy is needed here
only; the benchmark itself never imports it.
"""

from __future__ import annotations

import json
import math
import random
import sys

import scipy
from scipy import integrate

import refs
from regulab import static_well as sw
from regulab import time_step as ts
from regulab.core import Regulator
from regulab.numerics import QuadratureSpec

BENCH_REL_TOL = 1e-9
REF_SPEC = QuadratureSpec(rel_tol=BENCH_REL_TOL / 100.0)
BENCH_SPEC = QuadratureSpec(rel_tol=BENCH_REL_TOL)
POOL_SEED = 20110311
STRATA = 4
PER_STRATUM = 8
STEP_S = (0.2, 0.1, 0.05)
WELL_S = (0.2, 0.1, 0.05, 0.025)
PATH_EXPONENTS = ((1, 1), (1, 2), (2, 1), (2, 2))


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def step_pool(rng: random.Random) -> list[dict]:
    """Rows (lam, m, t), stratified on t, which sets the oscillation cost."""
    rows = []
    for k in range(STRATA):
        lo = 0.5 + 1.5 * k / STRATA
        for _ in range(PER_STRATUM):
            rows.append({
                "stratum": k,
                "lam": _uniform(rng, 0.5, 2.0),
                "m": _uniform(rng, 0.5, 1.5),
                "t": _uniform(rng, lo, lo + 1.5 / STRATA),
            })
    return rows


def well_pool(rng: random.Random) -> list[dict]:
    """Paths (lam, a, x, p0, p1), stratified on the half-width a."""
    rows = []
    for k in range(STRATA):
        lo = 0.5 + 1.0 * k / STRATA
        for i in range(PER_STRATUM):
            a = _uniform(rng, lo, lo + 1.0 / STRATA)
            p0, p1 = PATH_EXPONENTS[(i + k) % len(PATH_EXPONENTS)]
            rows.append({
                "stratum": k,
                "lam": _uniform(rng, 0.5, 4.0),
                "a": a,
                "x": _uniform(rng, -0.5 * a, 0.5 * a),
                "p0": p0,
                "p1": p1,
            })
    return rows


def well_regulator(row: dict, s: float) -> Regulator:
    return Regulator(s ** row["p0"], s ** row["p1"], s)


def _chunked_quad(f, lo: float, hi: float, width: float) -> float:
    n = max(1, math.ceil((hi - lo) / width))
    step = (hi - lo) / n
    parts = [
        integrate.quad(f, lo + i * step, lo + (i + 1) * step, epsabs=1e-16, epsrel=1e-12, limit=100)[0]
        for i in range(n)
    ]
    return math.fsum(parts)


def scipy_pointsplit(row: dict, s: float) -> float:
    cfg = ts.StepConfig(row["lam"], row["m"])
    reg = Regulator(s * s, s * s, s)

    def f(k):
        return ts.pointsplit_integrand(cfg, k, row["t"], reg) * math.exp(-math.hypot(k, cfg.m) * s)

    cut = 60.0 / s
    return _chunked_quad(f, -cut, cut, 1.0) / (2.0 * math.pi)


def scipy_mode_reg(row: dict) -> float:
    """lam^2/(16pi) * int over k of (1 - cos 2Et)/(omega E^2), with the
    oscillating tail done by scipy's Fourier-integral rule in the variable E."""
    lam, m, t = row["lam"], row["m"], row["t"]
    k_split = 40.0

    def full(k):
        w2 = k * k + m * m
        e2 = w2 + lam
        return (1.0 - math.cos(2.0 * math.sqrt(e2) * t)) / (math.sqrt(w2) * e2)

    def steady(k):
        w2 = k * k + m * m
        return 1.0 / (math.sqrt(w2) * (w2 + lam))

    def tail_in_e(e):  # dk = E dE / k
        k = math.sqrt(e * e - lam - m * m)
        return 1.0 / (math.sqrt(e * e - lam) * e * k)

    e_split = math.sqrt(k_split * k_split + m * m + lam)
    head = _chunked_quad(full, 0.0, k_split, 1.0)
    steady_tail = integrate.quad(steady, k_split, math.inf, epsabs=0.0, epsrel=1e-13)[0]
    osc_tail = integrate.quad(tail_in_e, e_split, math.inf, weight="cos", wvar=2.0 * t)[0]
    return lam * lam / (16.0 * math.pi) * 2.0 * (head + steady_tail - osc_tail)


def scipy_t00r(row: dict, s: float) -> float:
    cfg = sw.WellConfig(row["lam"], row["a"])
    reg = well_regulator(row, s)

    def f(w):
        return sw.s_omega(cfg, w, reg, row["x"]) * math.exp(-w * s)

    path = (row["p0"], row["p1"], 1, 1.0, 1.0, 1.0)
    closed = refs.expression_closed("rstatic317", path, row["lam"], s).real
    return _chunked_quad(f, 0.0, 60.0 / s, 1.0) + closed


def mode_scale(row: dict) -> float:
    """lam^2/(16pi) * int dk/(omega E^2): the magnitude mode_reg_density's
    tolerance is relative to."""
    lam, m = row["lam"], row["m"]
    steady = integrate.quad(
        lambda k: 1.0 / (math.hypot(k, m) * (k * k + m * m + lam)), -math.inf, math.inf,
        epsabs=0.0, epsrel=1e-12,
    )[0]
    return lam * lam / (16.0 * math.pi) * steady


def main() -> int:
    rng = random.Random(POOL_SEED)
    steps, wells = step_pool(rng), well_pool(rng)
    dev_tight = 0.0  # largest |bench-tolerance value - reference| / scale

    for i, row in enumerate(steps):
        cfg = ts.StepConfig(row["lam"], row["m"])
        ref = ts.mode_reg_density(cfg, row["t"], REF_SPEC).value
        row["mode"] = ref
        row["mode_scale"] = mode_scale(row)
        loose = ts.mode_reg_density(cfg, row["t"], BENCH_SPEC).value
        dev_tight = max(dev_tight, abs(loose - ref) / max(abs(ref), row["mode_scale"]))
        row["pointsplit"] = []
        for s in STEP_S:
            reg = Regulator(s * s, s * s, s)
            ref = ts.pointsplit_density(cfg, row["t"], reg, REF_SPEC).value
            loose = ts.pointsplit_density(cfg, row["t"], reg, BENCH_SPEC).value
            dev_tight = max(dev_tight, abs(loose - ref) / abs(ref))
            row["pointsplit"].append(ref)
        print(f"step {i + 1}/{len(steps)}", file=sys.stderr)

    for i, row in enumerate(wells):
        cfg = sw.WellConfig(row["lam"], row["a"])
        path = (row["p0"], row["p1"], 1, 1.0, 1.0, 1.0)
        row["t00r"], row["t00r_scale"] = [], []
        for s in WELL_S:
            reg = well_regulator(row, s)
            ref = sw.t00r_static(cfg, reg, row["x"], 0.0, REF_SPEC).value
            quad_part = ref - refs.expression_closed("rstatic317", path, row["lam"], s).real
            loose = sw.t00r_static(cfg, reg, row["x"], 0.0, BENCH_SPEC).value
            scale = max(abs(ref), abs(quad_part))
            dev_tight = max(dev_tight, abs(loose - ref) / scale)
            row["t00r"].append(ref)
            row["t00r_scale"].append(abs(quad_part))
        print(f"well {i + 1}/{len(wells)}", file=sys.stderr)

    # independent cross-check: one row per stratum, at the costliest s
    dev_scipy = 0.0
    for k in range(STRATA):
        row = steps[k * PER_STRATUM]
        dev_scipy = max(dev_scipy, abs(scipy_mode_reg(row) - row["mode"]) / row["mode_scale"])
        dev_scipy = max(dev_scipy, abs(scipy_pointsplit(row, STEP_S[-1]) - row["pointsplit"][-1])
                        / abs(row["pointsplit"][-1]))
        well = wells[k * PER_STRATUM]
        ref = well["t00r"][-1]
        dev_scipy = max(dev_scipy, abs(scipy_t00r(well, WELL_S[-1]) - ref)
                        / max(abs(ref), well["t00r_scale"][-1]))
        print(f"scipy cross-check {k + 1}/{STRATA}: max deviation {dev_scipy:.2e}", file=sys.stderr)

    table = {
        "meta": {
            "rel_tol": BENCH_REL_TOL,
            "reference_rel_tol": REF_SPEC.rel_tol,
            "pool_seed": POOL_SEED,
            "step_s": list(STEP_S),
            "well_s": list(WELL_S),
            "max_deviation_bench_tol_vs_reference": dev_tight,
            "scipy_cross_check": {
                "entries": 3 * STRATA,
                "max_relative_deviation": dev_scipy,
                "scipy": scipy.__version__,
            },
        },
        "step": steps,
        "well": wells,
    }
    with open(refs.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    if dev_scipy > BENCH_REL_TOL:
        print(f"scipy cross-check deviates by {dev_scipy:.2e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
