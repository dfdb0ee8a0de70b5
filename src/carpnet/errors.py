"""Exception types shared across the package."""


class CarpError(Exception):
    """Base class for every error raised by this package."""


class DataError(CarpError):
    """Malformed or inconsistent input data."""


class UsageError(CarpError):
    """Bad command-line usage or configuration."""


class NumericalError(CarpError):
    """Numerical failure."""


class ConvergenceError(NumericalError):
    """An iterative routine exhausted its budget before converging."""
