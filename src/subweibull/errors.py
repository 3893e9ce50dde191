"""Semantic exception hierarchy.

Callers can distinguish bad inputs (``ParameterError``) from numerical
failures (``NumericalError``) and from internal-consistency violations
(``VerificationError``), which always indicate a bug rather than a data
condition.
"""


class SubweibullError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SubweibullError, ValueError):
    """An argument is outside its admissible domain."""


class InsufficientSamplesError(ParameterError):
    """An empirical estimator was given fewer samples than it supports."""


class NoClosedFormError(SubweibullError, LookupError):
    """No closed form is tabulated for the requested combination."""


class NumericalError(SubweibullError, ArithmeticError):
    """A numerical procedure could not produce a usable result."""


class DivergenceError(NumericalError):
    """No finite bracket exists below the configured search ceiling."""


class UnboundedSupremumError(NumericalError):
    """A supremum kept growing past the supplied search bound."""


class InfeasibleError(NumericalError):
    """No feasible value exists below the configured search ceiling."""


class NoFeasibleConstantError(NumericalError):
    """An inverted constant is not finite, or a few ulps up it still fails its domination check."""


class VerificationError(SubweibullError):
    """A property that must hold by theory failed numerically."""
