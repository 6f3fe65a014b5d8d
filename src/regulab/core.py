"""Shared domain type: the regulator triple."""

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

