"""Exception types shared across the package."""

import math


class SemiflowLabError(Exception):
    """Base class for all library errors."""


class DomainError(SemiflowLabError, ValueError):
    """A point lies outside the domain on which a function is trustworthy."""


class PreconditionError(SemiflowLabError, ValueError):
    """An operation was called with arguments violating its contract."""


def spec_number(kind, value: str, spec: str):
    """``kind(value)`` for a parameter of a spec string; a malformed or
    non-finite one is a PreconditionError that names the spec."""
    try:
        number = kind(value)
        if math.isfinite(number):
            return number
    except ValueError:
        pass
    raise PreconditionError(f"bad parameter {value!r} in spec {spec!r}")


def require_tolerance(tol) -> None:
    """Raise a PreconditionError unless ``tol`` is a finite number > 0."""
    if not 0 < tol < math.inf:  # written so that NaN fails too
        raise PreconditionError(f"tolerance must be a finite number > 0, got {tol}")


class QuadratureError(SemiflowLabError, ArithmeticError):
    """A quadrature produced non-finite samples.

    The offending sample point, when known, is attached as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IntegrationError(SemiflowLabError, RuntimeError):
    """The adaptive ODE integrator exhausted its step budget."""


class InvalidSemiflowError(SemiflowLabError, RuntimeError):
    """A trajectory or a closed-form map left the closed unit disk."""


class AdmissibilityError(SemiflowLabError, ValueError):
    """A coboundary weight has a declared zero that is not a fixed point."""


class CocycleZeroError(SemiflowLabError, ZeroDivisionError):
    """A coboundary denominator vanished at the evaluation point."""


class RegularityError(SemiflowLabError, ValueError):
    """A radial weight failed the regularity precondition."""


class DegenerateOperatorError(SemiflowLabError, RuntimeError):
    """Symbol recovery hit an operator with vanishing action on constants."""


class ExtractionError(SemiflowLabError, RuntimeError):
    """Semigroup extraction failed at a specific time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConfigError(SemiflowLabError, ValueError):
    """A scenario file or command line is malformed."""
