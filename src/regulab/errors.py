"""Exception types shared across the package."""


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


class InvalidCutoff(RegulabError):
    """Frequency cutoff tau must be strictly positive."""


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
    """A density difference or closed form came out inf or nan because it or an
    intermediate overflowed or underflowed: a numerical failure, not bad input."""


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
