"""Exception types shared across the package, and the `finite` wrapper."""

import cmath
import functools
import inspect


class RegulabError(Exception):
    """Base class for all regulab errors."""


class ToleranceNotMet(RegulabError):
    """Adaptive quadrature stopped above tolerance: its subdivision budget ran
    out, a panel was not finite, or a half-line tail bound alone exceeded it."""

    def __init__(self, message, value=None, error_estimate=None, evaluations=0):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


class InvalidCutoff(RegulabError, ValueError):
    """Frequency cutoff tau must be strictly positive."""


class BeforeSwitchOn(RegulabError, ValueError):
    """A time-step density is defined only after the switch-on, at t >= 0."""


class TooFewSamples(RegulabError):
    """Limit classification needs at least four samples."""


class ExpressionSyntaxError(RegulabError):
    """Malformed expression text; `position` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownIdentifier(RegulabError):
    """Identifier other than the declared variable, known functions, or pi."""

    def __init__(self, name, position):
        super().__init__(f"unknown identifier '{name}' (position {position})")
        self.name = name
        self.position = position


class DomainError(RegulabError):
    """Evaluation left the domain of a subexpression (ln <= 0, x/0, ...)."""


class NonFiniteResult(DomainError):
    """A density or closed form that cannot be computed in floats, raised only
    by `finite`: a numerical failure, not bad input."""


class InvalidFrequency(RegulabError):
    """Mode frequency must be strictly positive."""


class OutsideRegionI(RegulabError):
    """Both split points must lie strictly inside the well."""


class SingularRegulator(RegulabError):
    """A regulator-dependent denominator vanished for this (eps0, eps1, tau)."""


class SplitStraddlesStep(RegulabError):
    """The time split must keep both points on the post-switch side."""


class DegenerateMap(RegulabError):
    """The map has vanishing first derivative at the evaluation point."""


class NonpositiveWeight(RegulabError):
    """Weight function must be strictly positive on its support."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


def finite(fn):
    """fn, raising NonFiniteResult that names fn and its arguments where fn
    raises an ArithmeticError or ValueError, or returns a value (a
    QuadratureResult's .value) that is not finite.  A RegulabError, fn's own
    refusal, passes unchanged.  The message is built only on failure."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
            if cmath.isfinite(number := getattr(value, "value", value)):
                return value
            cause = number
        except RegulabError:
            raise
        except (ArithmeticError, ValueError) as exc:
            cause = f"{type(exc).__name__}: {exc}"
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        at = ", ".join(f"{name} = {arg!r}" for name, arg in bound.items())
        raise NonFiniteResult(f"{fn.__name__} at {at} is not finite ({cause})")

    return checked
