"""Exception types shared across the package, and the cap on counts."""

# the most rows, ticks, chips, sample points or model floats a call may allocate
MAX_COUNT = 10**7


class ElcontrolError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ElcontrolError):
    """Operand shapes are incompatible for the requested operation."""


class GraphStateError(ElcontrolError):
    """A graph operation was requested in an invalid order (e.g. backward before forward)."""


class NonFiniteError(ElcontrolError):
    """A published operation produced NaN or Inf entries."""


class ConditioningError(ElcontrolError):
    """A matrix that must be inverted is singular or too badly conditioned."""


class NotRealizableError(ElcontrolError):
    """No steady input reproduces the requested steady state within tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InfeasibleError(ElcontrolError):
    """A constrained problem admits no feasible point."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class SolverError(ElcontrolError):
    """A numerical solver failed to converge or to certify its own result."""


class ValidationError(ElcontrolError):
    """Input data or configuration violates a documented precondition."""


class TrainingDivergedError(ElcontrolError):
    """The training loss became non-finite; the last valid parameters are attached."""

    def __init__(self, message, checkpoint=None, epoch=None):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.epoch = epoch


def checked_count(count, what):
    """`count` rounded to an int, checked to be at most MAX_COUNT (NaN is not)."""
    if not count <= MAX_COUNT:
        raise ValidationError(f"{what} is {count:g}, not a finite count up to {MAX_COUNT:g}")
    return int(round(count))
