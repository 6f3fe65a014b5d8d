"""Independent references for every benchmark operation.

Nothing here imports regulab: closed forms are derived afresh (a Laplace
transform for d_term, hand-written derivatives for the conformal maps, the
Gaussian integral for the QI bound), and the s -> 0 limits of the regulator
expressions come from leading-order analysis of their numerator and
denominator as polynomials in s.  Results without a closed form are read
from `refs.json`, written once by `make_refs.py`.
"""

from __future__ import annotations

import json
import math
import os

FOUR_PI = 4.0 * math.pi
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


class ReferenceError(Exception):
    """A reference is missing or malformed, so a result cannot be checked."""


def miss(value, ref, rel_tol: float, scale: float = 0.0) -> str | None:
    """None when |value - ref| <= rel_tol * max(|ref|, scale), else a message.

    `scale` is the magnitude the computation's own tolerance is defined
    against (for instance the larger of two cancelling terms); it keeps a
    near-zero reference from demanding more digits than the inputs carry.
    """
    bound = rel_tol * max(abs(ref), scale)
    err = abs(value - ref)
    if err <= bound:
        return None
    return f"|{value!r} - {ref!r}| = {err:.3e} > {bound:.3e}"


# --- time step: d_term ------------------------------------------------------


def d_term_closed(lam: float, eps0: float, eps1: float, tau: float) -> float:
    """(1/2pi) * integral over k of -(lam eps0/4) sin(k eps1 - |k| eps0) e^(-|k| tau).

    Each half-line is the Laplace transform of a sine,
    int_0^inf sin(c k) e^(-k tau) dk = c/(c^2 + tau^2), with c = eps1 - eps0
    for k > 0 and c = -(eps1 + eps0) for k < 0.
    """
    a = eps1 - eps0
    b = eps1 + eps0
    return -(lam * eps0 / (8.0 * math.pi)) * (a / (a * a + tau * tau) - b / (b * b + tau * tau))


# --- QI bound ----------------------------------------------------------------


def gaussian_qi_bound(w: float) -> float:
    """-(1/24pi) int rho'^2/rho for rho = exp(-(x/w)^2)/(w sqrt(pi)).

    rho'^2/rho = 4x^2/w^4 rho and int x^2 rho = w^2/2, so the integral is 2/w^2.
    """
    return -1.0 / (12.0 * math.pi * w * w)


def gaussian_weight_text(w: float) -> str:
    return f"exp(-(x/{w!r})^2)/({w!r}*sqrt(pi))"


# --- conformal maps ------------------------------------------------------------


def _sech2(v: float) -> float:
    c = math.cosh(v)
    return 1.0 / (c * c)


# text -> (V, V', V'', V''') written out by hand; every map has V' > 0.
MAPS = {
    "exp(v)": (math.exp, math.exp, math.exp, math.exp),
    "v + 0.5*sin(v)": (
        lambda v: v + 0.5 * math.sin(v),
        lambda v: 1.0 + 0.5 * math.cos(v),
        lambda v: -0.5 * math.sin(v),
        lambda v: -0.5 * math.cos(v),
    ),
    "2*v + tanh(v)": (
        lambda v: 2.0 * v + math.tanh(v),
        lambda v: 2.0 + _sech2(v),
        lambda v: -2.0 * _sech2(v) * math.tanh(v),
        lambda v: 4.0 * _sech2(v) * math.tanh(v) ** 2 - 2.0 * _sech2(v) ** 2,
    ),
    "v + sqrt(1 + v^2)": (
        lambda v: v + math.sqrt(1.0 + v * v),
        lambda v: 1.0 + v / math.sqrt(1.0 + v * v),
        lambda v: (1.0 + v * v) ** -1.5,
        lambda v: -3.0 * v * (1.0 + v * v) ** -2.5,
    ),
}


def delta_flanagan_closed(text: str, v: float) -> tuple[float, float]:
    """(V'''/(6V') - V''^2/(4V'^2))/(4pi) and the larger term's magnitude."""
    _, d1, d2, d3 = MAPS[text]
    a = d3(v) / (6.0 * d1(v))
    b = d2(v) ** 2 / (4.0 * d1(v) ** 2)
    return (a - b) / FOUR_PI, max(abs(a), abs(b)) / FOUR_PI


def delta_tau_closed(text: str, v: float, tau: float) -> tuple[float, float]:
    """-(V'^2 - 1)/(4pi tau^2) and the magnitude of its larger term."""
    d1 = MAPS[text][1](v)
    scale = max(d1 * d1, 1.0) / (FOUR_PI * tau * tau)
    return -(d1 * d1 - 1.0) / (FOUR_PI * tau * tau), scale


def delta_pointsplit_closed(text: str, v: float, vbar: float, tau: float) -> tuple[complex, float]:
    """[V'(v)V'(vbar)/((V(v)-V(vbar)) - i tau)^2 - 1/((v-vbar) - i tau)^2]/(4pi)
    and the magnitude of the larger of the two cancelling terms."""
    fv, d1 = MAPS[text][0], MAPS[text][1]
    mapped = d1(v) * d1(vbar) / complex(fv(v) - fv(vbar), -tau) ** 2
    plain = 1.0 / complex(v - vbar, -tau) ** 2
    return (mapped - plain) / FOUR_PI, max(abs(mapped), abs(plain)) / FOUR_PI


# --- limits of the regulator expressions along power-law paths ---------------
#
# On the path eps0 = c0 s^p0, eps1 = c1 s^p1, tau = ctau s^ptau each
# expression is const * N(s)/D(s) with N, D finite sums of monomials
# coeff * s^exponent.  After like exponents are merged (exactly: the
# coefficients are small integers times products of the c's), the limit is
# decided by the lowest surviving exponents of N and D.


def _mono(c: float, p: float) -> dict:
    return {p: complex(c)} if c != 0.0 else {}


def _add(*polys: dict) -> dict:
    out: dict = {}
    for poly in polys:
        for p, c in poly.items():
            out[p] = out.get(p, 0j) + c
    return {p: c for p, c in out.items() if c != 0}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            out[pa + pb] = out.get(pa + pb, 0j) + ca * cb
    return {p: c for p, c in out.items() if c != 0}


def _scale(a: dict, k: complex) -> dict:
    return {p: c * k for p, c in a.items() if c * k != 0}


def _expression_parts(expr_id: str, path: tuple, lam: float) -> tuple[complex, dict, dict]:
    p0, p1, ptau, c0, c1, ctau = path
    e0, e1, tau = _mono(c0, p0), _mono(c1, p1), _mono(ctau, ptau)
    e0sq, e1sq, tausq = _mul(e0, e0), _mul(e1, e1), _mul(tau, tau)
    a = _add(e1sq, _scale(e0sq, -1), tausq)  # eps1^2 - eps0^2 + tau^2
    if expr_id == "ratio239":
        # eps1^2 / (a + 2i eps0 tau)
        return 1.0, e1sq, _add(a, _scale(_mul(e0, tau), 2j))
    modulus = _add(_mul(a, a), _scale(_mul(e0sq, tausq), 4))  # |a + 2i eps0 tau|^2
    if expr_id == "rstatic317":
        # (lam/4pi) Re(eps1^2 / conj(sigma1)) = (lam/4pi) eps1^2 a / |sigma1|^2
        return lam / FOUR_PI, _mul(e1sq, a), modulus
    if expr_id == "dterm616":
        # -(lam/4pi) eps0^2 (a - 2 tau^2) / |sigma1|^2
        return -lam / FOUR_PI, _mul(e0sq, _add(a, _scale(tausq, -2))), modulus
    raise ReferenceError(f"no polynomial form for {expr_id!r}")


def expression_closed(expr_id: str, path: tuple, lam: float, s: float) -> complex:
    """Value of the expression at parameter s, from the same N/D form."""
    const, num, den = _expression_parts(expr_id, path, lam)
    n = sum(c * s**p for p, c in num.items())
    d = sum(c * s**p for p, c in den.items())
    return const * n / d


def path_limit(expr_id: str, path: tuple, lam: float = 1.0) -> tuple[str, complex]:
    """('finite', value) or ('divergent', 0) for the s -> 0 limit."""
    const, num, den = _expression_parts(expr_id, path, lam)
    if not den:
        return "divergent", 0j  # the denominator vanishes all along the path
    if not num:
        return "finite", 0j
    pn, pd = min(num), min(den)
    if pn > pd:
        return "finite", 0j
    if pn < pd:
        return "divergent", 0j
    return "finite", const * num[pn] / den[pd]


def flanagan_path_limit(text: str, v0: float, p1: float, ptau: float) -> tuple[str, complex]:
    """Coincidence limit of delta_pointsplit with split s^p1 and cutoff s^ptau.

    With tau = o(split^3) the cutoff corrections, of order tau/split^3,
    vanish and the split-first limit delta_flanagan survives.  With the
    cutoff no smaller than the split (ptau <= p1) the density behaves like
    -(V'^2 - 1)/(4pi tau^2) and diverges unless V'(v0)^2 = 1.
    """
    if ptau > 3.0 * p1:
        return "finite", complex(delta_flanagan_closed(text, v0)[0])
    d1 = MAPS[text][1](v0)
    if ptau <= p1 and abs(d1 * d1 - 1.0) > 0.1:
        return "divergent", 0j
    raise ReferenceError(f"no closed-form limit for {text!r} at v0={v0} on p1={p1}, ptau={ptau}")


# --- reference table -------------------------------------------------------------


_ROW_KEYS = {
    "step": ("stratum", "lam", "m", "t", "mode", "mode_scale", "pointsplit"),
    "well": ("stratum", "lam", "a", "x", "p0", "p1", "t00r", "t00r_scale"),
}
# per-s reference lists, each as long as the s list in meta
_PER_S = {"step": ("step_s", ("pointsplit",)), "well": ("well_s", ("t00r", "t00r_scale"))}


def load_table(path: str = REFS_PATH) -> dict:
    """Read refs.json and check that every entry carries what the checks use."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ReferenceError(f"cannot read reference table {path}: {exc}") from exc
    try:
        if not float(table["meta"]["rel_tol"]) > 0.0:
            raise ValueError("rel_tol must be > 0")
        for section, keys in _ROW_KEYS.items():
            s_key, lists = _PER_S[section]
            n = len(table["meta"][s_key])
            if not table[section]:
                raise ValueError(f"no {section} rows")
            for row in table[section]:
                missing = [k for k in keys if k not in row]
                if missing:
                    raise ValueError(f"{section} row without {missing}")
                if any(len(row[k]) != n for k in lists):
                    raise ValueError(f"{section} row needs {n} values in each of {lists}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ReferenceError(f"malformed reference table {path}: {exc!r}") from exc
    return table
