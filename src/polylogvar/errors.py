"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PathError(ValueError):
    """A path violates the margin or continuity requirements."""


class IntegrationError(RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""


class ReconstructionError(RuntimeError):
    """A numeric value could not be certified as a bounded rational."""
