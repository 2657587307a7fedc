"""Exception types raised across the package, and its input rules.

Every failure mode that callers are expected to handle gets its own class
so that CLI and test code can match on type instead of message text.  The
input rules live here too: check_positive_finite, check_nonnegative_finite,
check_count, check_positive.
"""

import math
import numbers

import numpy as np


class ThinFilmError(Exception):
    """Base class for all package-specific errors."""


class NonZeroMeanError(ThinFilmError):
    """An operation requiring a mean-zero field received one with a mean."""


class NonPositiveFieldError(ThinFilmError):
    """A field that must be finite and strictly positive is not: it has a
    zero, negative or nan entry, or (start data) an infinite one."""


class PositivityLostError(ThinFilmError):
    """A produced field lost strict positivity (should not happen)."""


class SolverDivergedError(ThinFilmError):
    """A time step failed: its nonlinear solve did not converge, or its
    result broke mass conservation.  Carries the solve's last iterate
    ``phi`` and its ``trace``.
    """

    def __init__(self, message, phi, trace):
        super().__init__(message)
        self.phi = phi
        self.trace = trace


class BarrierCollapseError(ThinFilmError):
    """Line search interval shrank to nothing while still downhill."""


class InsufficientDataError(ThinFilmError):
    """Not enough samples in the requested window to perform a fit."""


class NonPositiveValueError(ThinFilmError):
    """A fit in log coordinates received a value that is not finite and positive."""


class ConfigError(ThinFilmError, ValueError):
    """Bad CLI/config input: unknown key, unparsable value, bad combination,
    or a value a config rejects on construction (hence also a ValueError)."""


class InvalidCoefficientsError(ConfigError):
    """Coefficients out of their admissible range (dt, the BDF2 floors, a
    preconditioner solve's): rejected before a step runs, so a usage error."""


class FormatError(ThinFilmError):
    """A file does not conform to the expected on-disk format."""


class UnfinishedError(ThinFilmError):
    """A long run hit its wall-clock budget.  Carries partial results."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_positive_finite(name: str, value, error=ConfigError) -> None:
    """Raise ``error`` unless value is a real (not a bool) in (0, inf); nan fails."""
    if not (_is_real(value) and 0.0 < value < math.inf):
        raise error(f"{name} must be positive and finite, got {value!r}")


def check_nonnegative_finite(name: str, value) -> None:
    """Raise ConfigError unless value is a real (not a bool) in [0, inf); nan fails."""
    if not (_is_real(value) and 0.0 <= value < math.inf):
        raise ConfigError(f"{name} must be non-negative and finite, got {value!r}")


def check_count(name: str, value, low: int) -> None:
    """Raise ConfigError unless value is an integer >= low; a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def check_positive(phi: np.ndarray, what: str = "field") -> None:
    """Raise NonPositiveFieldError unless every entry of phi is > 0.

    One reduction: the minimum is > 0 exactly when every entry is, and a
    nan entry makes it nan, which fails the test too.
    """
    bad = float(phi.min())
    if not bad > 0.0:
        raise NonPositiveFieldError(f"{what} must be strictly positive, min = {bad}")
