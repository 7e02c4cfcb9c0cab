"""Exception hierarchy shared across the package."""


class CombofitError(Exception):
    """Base class for all package errors."""


class ValidationError(CombofitError):
    """Bad user input: malformed files, inconsistent shapes, invalid config."""


class NumericError(CombofitError):
    """Runtime numerical failure: non-finite posterior, degenerate system."""


class InitializationError(NumericError):
    """Sampler could not start from its starting row."""


class FitConvergenceError(NumericError):
    """Least-squares curve fit did not converge."""
