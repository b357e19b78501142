"""Exception types shared across the package."""


class ParaBoseError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ParaBoseError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(ParaBoseError, ValueError):
    """Invalid scenario configuration (unknown key, bad value, bad schema)."""


class TruncationError(ParaBoseError, RuntimeError):
    """Fock-space truncation too small for the requested state or evolution."""


class IntegrationError(ParaBoseError, RuntimeError):
    """Time integration failed a hard guarantee.

    Raised on solver failure, certification disagreement, norm or
    conserved-quantity drift, squeeze blow-up (|zeta| -> 1) or |f| = |g|.
    """


class QuadratureError(ParaBoseError, RuntimeError):
    """Quadrature did not converge to the requested tolerance."""
