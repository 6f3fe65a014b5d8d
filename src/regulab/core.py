"""Shared domain types: the regulator triple and its regulated interval."""

from __future__ import annotations

import cmath
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


def sigma_tau(eps0: float, eps1: float, tau: float) -> complex:
    """The regulated interval eps1^2 - (eps0 - i*tau)^2 of the split points,
    in which the Hadamard form of the 1+1 two-point function is written."""
    return complex(eps1 * eps1 - eps0 * eps0 + tau * tau, 2.0 * eps0 * tau)


def nonzero_sigma_tau(eps0: float, eps1: float, tau: float) -> tuple[float, float, float, complex]:
    """(eps0, eps1, tau, sigma_tau), the regulator scaled once by a power of 2
    where sigma_tau underflows to 0 or is not finite, which the degree-0 forms
    that divide by it do not see.  SingularRegulator where sigma_tau still
    vanishes: on the null split eps0 = eps1 at tau = 0, or at the origin."""
    sigma = sigma_tau(eps0, eps1, tau)
    if sigma != 0 and cmath.isfinite(sigma):
        return eps0, eps1, tau, sigma
    k = -math.frexp(max(eps0, eps1, abs(tau)))[1]
    scaled = math.ldexp(eps0, k), math.ldexp(eps1, k), math.ldexp(tau, k)
    if (sigma := sigma_tau(*scaled)) == 0:
        raise SingularRegulator(f"sigma_tau vanishes at (eps0, eps1, tau) = ({eps0}, {eps1}, {tau})")
    return (*scaled, sigma)
