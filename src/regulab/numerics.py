"""Adaptive quadrature and limit classification.

Integrals over [0, inf) carry an exponential cutoff weight e^(-omega*tau).
Their initial panels, all 2/tau wide, are laid outward from the origin until a
bound on the tail beyond the last one, sampled from |f| at its nodes, is a
tenth of the tolerance (or omega*tau reaches 60); that bound counts in the
error estimate that refinement drives below tolerance.  Integrals over
the whole line, under e^(-|k|*tau), are folded onto [0, inf).  The panel
integrator is a classic Gauss 7 / Kronrod 15 embedded pair with greedy
bisection of the worst panel.  Initial panels follow the cutoff only; error
estimates alone decide where to refine, behind a guard against aliasing that
bisects every initial panel once and carries the change in value across each
bisection into the error estimate.

The integrators use the integrand's own arithmetic: a real integrand is
summed in floats and gives a float, a complex one a complex.

`classify_limit` extrapolates a sequence of samples taken along a shrinking
scale parameter s and decides whether the s -> 0 limit is finite, divergent,
or undecidable from the data.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import InvalidCutoff, ToleranceNotMet, TooFewSamples

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "LimitKind",
    "LimitOutcome",
    "integrate_interval",
    "integrate_halfline",
    "integrate_realline",
    "classify_limit",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the adaptive integrator.

    max_subdivisions counts every bisection, including the guard bisection
    each initial panel gets before the error sum is trusted, so it bounds the
    whole cost of an integral.  The guard bisections always run; a budget
    smaller than their number only rules out refinement after them.  An
    integrand needs about one bisection per period it oscillates through
    where it is not negligible, so the default of 20000 is sized for the
    most oscillatory inputs of the density modules (see README).  Both
    tolerances must be finite and > 0.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 20000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


@dataclass(frozen=True)
class QuadratureResult:
    """An integral, or a density computed from one, with its error estimate
    and the number of integrand evaluations it cost (0 for a closed form).
    An integrator's value has its integrand's type: float for a real
    integrand, complex for a complex one."""

    value: complex | float
    error_estimate: float
    evaluations: int = 0

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise ValueError("error_estimate must be >= 0")


# Kronrod-15 node magnitudes on [-1, 1] and the paired weights; nodes with odd
# index form the embedded Gauss-7 rule.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WGK_CENTER = 0.209482141084728
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119)
_WG_CENTER = 0.417959183673469


def _gk15(
    f: Callable[[float], complex], a: float, b: float
) -> tuple[complex, float, float]:
    """Gauss7/Kronrod15 pair on [a, b]; returns (K15 value, |K15 - G7|, K15
    integral of |f|)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    for i in range(7):
        dx = h * _XGK[i]
        f1 = f(c - dx)
        f2 = f(c + dx)
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    return resk * h, abs((resk - resg) * h), resabs * abs(h)


def _not_finite(a: float, b: float, value: complex, err: float, evals: int) -> ToleranceNotMet:
    """The failure for a panel whose K15 - G7 difference is not finite, which
    it is whenever the panel's value is not."""
    return ToleranceNotMet(
        f"the quadrature of the panel [{a!r}, {b!r}] is not finite "
        f"(value {value}, error estimate {err})",
        value=value,
        error_estimate=err,
        evaluations=evals,
    )


class _Panels:
    """The panels of one adaptive integral, queued for refinement, with their
    running value, error sum and evaluation count.

    A panel's |K15 - G7| can be small by accident when the panel is too wide
    for f (aliasing), so every initial panel is bisected once before the
    error sum is trusted, and at every bisection each half's error is raised
    to half the change in the panel's value, capped by the integral of |f|
    over that half.
    """

    def __init__(self):
        # Queue entries are (checked, -error, a, b, value): initial panels not
        # yet bisected (checked = 0) pop before any others.
        self.queue = []
        self.total = 0.0
        self.error = 0.0
        self.evals = 0

    def tolerance(self, spec: QuadratureSpec) -> float:
        return max(spec.abs_tol, spec.rel_tol * abs(self.total))

    def add(self, f: Callable[[float], complex], a: float, b: float):
        """Integrate f over the initial panel [a, b] and queue the panel for
        its guard bisection; raises at once if the panel is not finite."""
        val, err, _ = _gk15(f, a, b)
        self.evals += 15
        if not math.isfinite(err):
            raise _not_finite(a, b, val, err, self.evals)
        self.total += val
        self.error += err
        heapq.heappush(self.queue, (0, -err, a, b, val))

    def refine(
        self,
        f: Callable[[float], complex],
        spec: QuadratureSpec,
        tail: Callable[[], float] = lambda: 0.0,
    ) -> QuadratureResult:
        """Bisect the worst panel until the error sum plus `tail()`, a bound
        on what the panels leave out, is within tolerance.

        `tail` runs before every step and may add initial panels to bring its
        bound down; bisection cannot.  The guard bisections count toward
        max_subdivisions, which is checked once they are done.  Raises
        ToleranceNotMet, naming the panel with the largest error, when the
        budget runs out above tolerance or the tail bound alone is above it,
        or at once, naming the panel, when a panel's value or error is not
        finite: no bisection can repair either of the last two.
        Ties in the queue resolve toward the leftmost panel, so that panels
        near the origin are refined first.
        """
        queue = self.queue
        subdivisions = 0
        while True:
            tail_err = tail()
            if queue[0][0] == 1:  # every initial panel has had its guard bisection
                tol = self.tolerance(spec)
                total_err = self.error + tail_err
                if total_err <= tol:
                    return QuadratureResult(self.total, total_err, self.evals)
                if subdivisions >= spec.max_subdivisions or tail_err > tol:
                    _, neg_worst, wa, wb, _ = queue[0]
                    tail_note = f"; the tail beyond the last panel is bounded by {tail_err:.3e}"
                    raise ToleranceNotMet(
                        f"the error estimate {total_err:.3e} is above tolerance "
                        f"{tol:.3e} after {subdivisions} bisections (max_subdivisions "
                        f"= {spec.max_subdivisions}); worst panel [{wa!r}, {wb!r}] "
                        f"(error {-neg_worst:.3e})" + (tail_note if tail_err else ""),
                        value=self.total,
                        error_estimate=total_err,
                        evaluations=self.evals,
                    )
            _, neg_err, a, b, val = heapq.heappop(queue)
            m = 0.5 * (a + b)
            v1, e1, abs1 = _gk15(f, a, m)
            v2, e2, abs2 = _gk15(f, m, b)
            self.evals += 30
            if not math.isfinite(e1 + e2):
                raise _not_finite(a, b, v1 + v2, e1 + e2, self.evals)
            jump = 0.5 * abs(v1 + v2 - val)
            e1 = max(e1, min(jump, abs1))
            e2 = max(e2, min(jump, abs2))
            self.total += (v1 + v2) - val
            self.error += (e1 + e2) - (-neg_err)
            heapq.heappush(queue, (1, -e1, a, m, v1))
            heapq.heappush(queue, (1, -e2, m, b, v2))
            subdivisions += 1


# Half-line initial panels are 2/tau wide, so the cut after k of them sits at
# T = omega*tau = 2k, where the weight is e^(-2k).  T is capped at 60, where
# the cut was fixed before it followed the tail bound: a fixed cut at 745 (the
# last T with e^(-T) > 0.0) changed no bit of the densities tried.
_MAX_PANELS = 30
# The tail beyond the cut is bounded by _TAIL_GROWTH times the largest |f| at
# the nodes of the last panel, times e^(-T)/tau; the cut is the first edge
# where that bound is at most _TAIL_SHARE of the tolerance.  Sampled across
# the whole panel, a slowly oscillating |f| cannot hide in a zero near the cut.
_TAIL_GROWTH = 2.0
_TAIL_SHARE = 0.1


def integrate_interval(
    f: Callable[[float], complex],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Adaptive integral of f over the finite interval [a, b] (no weight),
    starting from the single panel [a, b]."""
    spec = spec or QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise ValueError("need finite a < b")
    panels = _Panels()
    panels.add(f, a, b)
    return panels.refine(f, spec)


def integrate_halfline(
    f: Callable[[float], complex],
    tau: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Approximate integral of f(omega) * e^(-omega*tau) over [0, inf).

    Initial panels 2/tau wide are laid outward from the origin; an integrand
    singular at 0 is resolved by bisection toward it, as in QUADPACK's QAGI.
    The tail beyond the last panel is bounded by 2 M e^(-T)/tau, where
    T = omega*tau at the cut and M is the largest |f| at the nodes of the
    last panel; panels are added until that bound is at most a tenth of the
    tolerance, or T reaches 60.  The bound is sampled, not certified.  It
    counts in the error that refinement drives below tolerance, and if
    refinement shrinks the value, and with it the tolerance, more panels are
    added.
    """
    spec = spec or QuadratureSpec()
    if not (tau > 0.0) or not math.isfinite(tau):
        raise InvalidCutoff(f"tau must be > 0, got {tau}")
    width = 2.0 / tau
    panels = _Panels()
    laid = 0  # initial panels 2/tau wide; the cut is at omega = laid * width
    bound = math.inf  # the tail bound at the cut
    peak = 0.0  # the largest |f| at the nodes of the panel being laid

    def weighted(w: float) -> complex:
        return f(w) * math.exp(-w * tau)

    def sampled(w: float) -> complex:  # weighted, recording |f| for the tail bound
        nonlocal peak
        value = f(w)
        peak = max(peak, abs(value))
        return value * math.exp(-w * tau)

    def tail() -> float:
        nonlocal laid, bound, peak
        while laid < _MAX_PANELS and bound > _TAIL_SHARE * panels.tolerance(spec):
            peak = 0.0
            panels.add(sampled, laid * width, (laid + 1) * width)
            laid += 1
            bound = _TAIL_GROWTH * peak * math.exp(-2.0 * laid) / tau
        return bound

    return panels.refine(weighted, spec, tail)


def integrate_realline(
    f: Callable[[float], complex],
    tau: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Approximate integral of f(k) * e^(-|k|*tau) over (-inf, inf).

    The line is folded onto the half line, as QUADPACK's QAGI does:
    integrate_halfline integrates f(k) + f(-k), so the weight, the panels
    and the tail bound are the half-line ones.  `evaluations`, here and on
    ToleranceNotMet, counts calls of f.
    """
    try:
        res = integrate_halfline(lambda k: f(k) + f(-k), tau, spec)
    except ToleranceNotMet as exc:
        exc.evaluations *= 2
        raise
    return QuadratureResult(res.value, res.error_estimate, 2 * res.evaluations)


class LimitKind(Enum):
    FINITE = "finite"
    DIVERGENT = "divergent"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class LimitOutcome:
    """Result of a limit classification.

    `value` is meaningful only when kind is FINITE; `confidence` in [0, 1]
    reflects how consistently the extrapolation table contracted (or, for a
    divergent verdict, how cleanly a power law fit the growth).
    """

    kind: LimitKind
    value: complex = 0j
    confidence: float = 0.0


def _neville_diagonal(s: Sequence[float], v: Sequence[complex]) -> list[complex]:
    """Diagonal of the Neville table for polynomial extrapolation to s = 0."""
    n = len(s)
    row = list(v)
    diag = [row[0]]
    for m in range(1, n):
        new = []
        for i in range(n - m):
            num = s[i] * row[i + 1] - s[i + m] * row[i]
            new.append(num / (s[i] - s[i + m]))
        row = new
        diag.append(row[0])
    return diag


def _power_law_fit(s: Sequence[float], v: Sequence[complex]) -> tuple[float, float] | None:
    """Least-squares slope of log|v| against log s over the given samples,
    with the RMS residual of the fit; None if any |v| vanishes."""
    mags = [abs(z) for z in v]
    if any(m == 0.0 for m in mags):
        return None
    xs = [math.log(x) for x in s]
    ys = [math.log(m) for m in mags]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    resid = math.sqrt(
        sum((y - (my + slope * (x - mx))) ** 2 for x, y in zip(xs, ys)) / n
    )
    return slope, resid


def classify_limit(samples: Sequence[tuple[float, complex]]) -> LimitOutcome:
    """Classify the s -> 0 limit of a sampled sequence.

    `samples` must be ordered with s strictly decreasing toward 0, and no two
    adjacent s may have the same logarithm.  Divergence is detected first, as
    power-law growth of |value| over the last four samples (slope of log|v|
    vs log s below -0.5 with RMS residual < 0.1); otherwise Richardson-style
    polynomial extrapolation to s = 0 is applied and the outcome is finite if
    the table diagonal contracts.
    """
    if len(samples) < 4:
        raise TooFewSamples(f"need at least 4 samples, got {len(samples)}")
    s = [float(p[0]) for p in samples]
    v = [complex(p[1]) for p in samples]
    for x, y in zip(s[:-1], s[1:]):
        if not (x > y > 0.0):
            raise ValueError("samples must have strictly decreasing s > 0")
    for x, y in zip(s[:-1], s[1:]):
        if math.log(x) == math.log(y):  # the power-law fit needs a spread in log s
            raise ValueError(f"s = {x} and {y} have the same logarithm")

    scale = max(abs(z) for z in v)
    if scale == 0.0:
        return LimitOutcome(LimitKind.FINITE, 0j, 1.0)

    fit = _power_law_fit(s[-4:], v[-4:])
    if fit is not None:
        slope, resid = fit
        if slope < -0.5 and resid < 0.1 and abs(v[-1]) > abs(v[-4]):
            return LimitOutcome(
                LimitKind.DIVERGENT, 0j, max(0.0, min(1.0, 1.0 - resid / 0.1))
            )

    # Extrapolate over the full sample set and over trailing suffixes (early
    # samples may predate the asymptotic regime), and in each table take the
    # diagonal entry where it contracted the most; entries past that point are
    # typically dominated by rounding noise in the samples.
    best = None
    length = len(s)
    while length >= 4:
        diag = _neville_diagonal(s[-length:], v[-length:])
        gaps = [abs(b - a) for a, b in zip(diag[:-1], diag[1:])]
        i_best = min(range(len(gaps)), key=lambda i: gaps[i])
        contracted = gaps[i_best] <= 0.1 * max(gaps[0], 1e-300) or gaps[0] == 0.0
        cand = (gaps[i_best], diag[i_best + 1], contracted)
        if best is None or cand[0] < best[0]:
            best = cand
        length -= 2
    gap, value, contracted = best
    norm = max(scale, abs(value))
    rel_gap = gap / norm
    if rel_gap <= 1e-6 or (contracted and rel_gap <= 1e-2):
        confidence = max(0.0, min(1.0, 1.0 - 1e3 * rel_gap))
        return LimitOutcome(LimitKind.FINITE, value, confidence)
    return LimitOutcome(LimitKind.INDETERMINATE, 0j, max(0.0, min(0.2, 1.0 - rel_gap)))
