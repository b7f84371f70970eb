"""Exception types shared across the package."""


class TwoAtomError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TwoAtomError):
    """Invalid configuration value, unknown key, or malformed config file."""


class BasisLookupError(TwoAtomError):
    """Requested bare state is outside the truncated basis."""


class DimensionError(TwoAtomError):
    """Basis dimension exceeds the configured hard limit, or physical memory.

    Raised for a basis above basis.DIMENSION_LIMIT, for a dense
    eigendecomposition (HermitianOperator.eigensystem) whose matrix and
    eigenvectors could not fit in physical memory, and for a photon-number
    sector whose dense arrays could not.
    """


class DomainError(TwoAtomError, ValueError):
    """Argument outside the mathematical domain of an operation.

    Raised for time grids config.checked_times refuses, empty detector regions,
    unknown frequency-range tags and similar misuse; a ValueError, as Python's are.
    """


class ConvergenceError(TwoAtomError):
    """An iterative routine failed to reach its tolerance.

    Carries the best error estimate achieved so the caller can decide
    whether the partial result is still useful.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
