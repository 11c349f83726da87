"""Exception types shared across the package.  Each class sets the exit
code that ``cli.main`` gives for it: a DomainError is exit 3 and an
ArithmeticError exit 4."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation (exit 3)."""


class PathError(DomainError):
    """A path violates the margin or continuity requirements (exit 3)."""


class IntegrationError(ArithmeticError):
    """Numerical integration failed to reach the requested accuracy
    (exit 4)."""


class ReconstructionError(ArithmeticError):
    """A numeric value could not be certified as a bounded rational
    (exit 4)."""
