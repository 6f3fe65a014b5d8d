"""Shared domain types: the regulator triple and density results."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Regulator:
    """Point-split offsets and frequency cutoff (eps0, eps1, tau), all >= 0.

    eps0 splits the two evaluation points in time, eps1 in space; tau is the
    scale of the exponential high-frequency suppression e^(-omega*tau).
    """

    eps0: float = 0.0
    eps1: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        for name in ("eps0", "eps1", "tau"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class DensityResult:
    """A computed energy-density value with its quadrature error estimate and
    the number of integrand evaluations it cost (0 for a closed form)."""

    value: float
    error_estimate: float
    regulator: Regulator | None = None
    evaluations: int = 0

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise ValueError("error_estimate must be >= 0")
