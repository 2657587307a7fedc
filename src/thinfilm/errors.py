"""Exception types raised across the package.

Every failure mode that callers are expected to handle gets its own class
so that CLI and test code can match on type instead of message text.
"""


class ThinFilmError(Exception):
    """Base class for all package-specific errors."""


class NonZeroMeanError(ThinFilmError):
    """An operation requiring a mean-zero field received one with a mean."""


class NonPositiveFieldError(ThinFilmError):
    """A field that must be finite and strictly positive is not: it has a
    zero, negative or nan entry, or (start data) an infinite one."""


class MissingHistoryError(ThinFilmError):
    """A two-step scheme was asked to step without a previous state."""


class PositivityLostError(ThinFilmError):
    """A produced field lost strict positivity (should not happen)."""


class SolverDivergedError(ThinFilmError):
    """A time step failed because the nonlinear solve did not converge.

    When the iteration budget ran out it carries the last iterate ``phi``
    and the failed solve's ``trace``.
    """

    def __init__(self, message, phi=None, trace=None):
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

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
