"""Shared domain types: the regulator triple and its regulated interval."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularRegulator


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


def sigma_tau_factors(eps0: float, eps1: float, tau: float) -> tuple[float, ...]:
    """(g, h, b, A, t, n1, n2) of the Hadamard form's regulated interval
    sigma_tau = eps1^2 - (eps0 - i*tau)^2 = (eps1 - eps0 + i*tau)(eps1 + eps0 - i*tau):
    the moduli n1, n2 of the two factors and t = tau at the scale 2^k that puts
    the largest component in [2^1019, 2^1020), the bounded g = eps1/n2,
    h = eps0/n2, b = tau/n1, and A = (eps1^2 - eps0^2)/n1^2.  SingularRegulator
    where the first factor vanishes: eps0 = eps1 at tau = 0."""
    k = 1020 - math.frexp(max(eps0, eps1, abs(tau)))[1]
    e0, e1 = math.ldexp(eps0, k), math.ldexp(eps1, k)
    # a tau scaled below 2^-1074 sits beside an eps >= 2^1020 and counts only on
    # the null split, where b = 1 at any scale: unscaled, it keeps n1 off 0
    t = math.ldexp(tau, k) or tau
    n1 = math.hypot(e1 - e0, t)
    if n1 == 0.0:
        raise SingularRegulator(f"sigma_tau vanishes at (eps0, eps1, tau) = ({eps0}, {eps1}, {tau})")
    n2 = math.hypot(e1 + e0, t)
    return e1 / n2, e0 / n2, t / n1, (e1 - e0) / n1 * (e1 + e0) / n1, t, n1, n2
