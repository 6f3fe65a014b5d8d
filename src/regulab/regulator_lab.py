"""Limit paths for (eps0, eps1, tau) -> 0 and classification of the
regulator-dependent expressions along them.

A LimitPath drives each regulator component to zero as a power of a single
parameter s; the exponent ordering is what decides the limit of the
degree-zero-homogeneous ambiguity expressions.  A coefficient of zero pins a
component identically to zero along the whole path.  The prototype,
ratio239 = eps1^2/sigma_tau (core.sigma_tau_factors), tends to 1, 0 or
diverges by which component shrinks fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import Regulator, sigma_tau_factors
from .errors import SingularRegulator, finite
from .flanagan import ConformalMap, delta_pointsplit
from .numerics import LimitKind, LimitOutcome, classify_limit
from .static_well import WellConfig, r_integral_closed
from .time_step import d_term_value

__all__ = [
    "LimitPath",
    "AmbiguityExpr",
    "ScanResult",
    "ratio_239",
    "check_schedule",
    "scan_path",
]


@dataclass(frozen=True)
class LimitPath:
    """eps0(s) = c0*s^p0, eps1(s) = c1*s^p1, tau(s) = ctau*s^ptau for s in (0, 1]."""

    p0: float
    p1: float
    ptau: float
    c0: float = 1.0
    c1: float = 1.0
    ctau: float = 1.0

    def __post_init__(self):
        for name in ("p0", "p1", "ptau", "c0", "c1", "ctau"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.c0 == 0.0 and self.c1 == 0.0 and self.ctau == 0.0:
            raise ValueError("at least one coefficient must be positive")

    def regulator_at(self, s: float) -> Regulator:
        if not (0.0 < s <= 1.0):
            raise ValueError(f"s must be in (0, 1], got {s}")
        return Regulator(
            self.c0 * s**self.p0, self.c1 * s**self.p1, self.ctau * s**self.ptau
        )


def check_schedule(s_values: Sequence[float]) -> None:
    """Raise ValueError unless the s values decrease strictly within (0, 1],
    as a schedule along a LimitPath must, and no two adjacent ones have the
    same logarithm, which classify_limit fits against."""
    in_range = all(0.0 < s <= 1.0 for s in s_values)
    if not in_range or any(s <= later for s, later in zip(s_values, s_values[1:])):
        raise ValueError("need s strictly decreasing in (0, 1]")
    for s, later in zip(s_values, s_values[1:]):
        if math.log(s) == math.log(later):
            raise ValueError(f"s = {s} and {later} have the same logarithm")


@finite
def ratio_239(reg: Regulator) -> complex:
    """eps1^2/sigma_tau = g^2 (A + b^2) - 2i g^2 h n2 t/n1^2, the prototype
    order-of-limits ambiguity."""
    g, h, b, a, t, n1, n2 = sigma_tau_factors(reg.eps0, reg.eps1, reg.tau)
    im = 2.0 * g * g * h * n2 / n1 * t / n1  # t/n1 alone can lose digits below 2^-1022
    return complex(g * g * (a + b * b), -im)


@dataclass(frozen=True)
class AmbiguityExpr:
    """A pure evaluator Regulator -> complex."""

    evaluate: Callable[[Regulator], complex]

    @classmethod
    def ratio239(cls) -> "AmbiguityExpr":
        return cls(ratio_239)

    @classmethod
    def r_static317(cls, lam: float = 1.0) -> "AmbiguityExpr":
        cfg = WellConfig(lam, 1.0)  # the closed form does not read the half-width
        return cls(lambda reg: r_integral_closed(cfg, reg))

    @classmethod
    def d_term616(cls, lam: float = 1.0) -> "AmbiguityExpr":
        """d_term_value, which is minus the step's gap (time_step)."""
        if not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam}")
        return cls(lambda reg: d_term_value(lam, reg.eps0, reg.eps1, reg.tau))

    @classmethod
    def flanagan_delta(cls, V: ConformalMap, v: float) -> "AmbiguityExpr":
        """Density-difference split in the null coordinate: eps1 is the
        separation v - vbar and tau the cutoff (eps0 is unused)."""
        return cls(lambda reg: delta_pointsplit(V, v, v - reg.eps1, reg.tau))


@dataclass(frozen=True)
class ScanResult:
    """Classification plus the raw (s, value) samples behind it."""

    outcome: LimitOutcome
    samples: tuple[tuple[float, complex], ...]
    singular_s: float | None = None


def scan_path(
    expr: AmbiguityExpr, path: LimitPath, s_values: Sequence[float]
) -> ScanResult:
    """Evaluate `expr` along `path` at the given s schedule, strictly
    decreasing in (0, 1], and classify the s -> 0 trend.  A schedule that is
    not raises ValueError before any sample is taken.  An on-path
    singularity is itself a verdict: the scan reports Divergent with zero
    confidence rather than skipping."""
    check_schedule(s_values)
    samples: list[tuple[float, complex]] = []
    for s in s_values:
        try:
            samples.append((float(s), complex(expr.evaluate(path.regulator_at(s)))))
        except SingularRegulator:
            return ScanResult(
                LimitOutcome(LimitKind.DIVERGENT, 0j, 0.0), tuple(samples), float(s)
            )
    return ScanResult(classify_limit(samples), tuple(samples), None)
