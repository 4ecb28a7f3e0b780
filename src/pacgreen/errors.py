"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter or point violates an operation's precondition."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a singular point."""


class ConvergenceError(RuntimeError):
    """Iterative solver failed to reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class InvariantError(RuntimeError):
    """An internal consistency check failed: a fault of the program, not
    of its input."""


class StepBudgetError(RuntimeError):
    """A random-walk trial exhausted its step budget before exiting."""


class FitError(ValueError):
    """Regression input is unusable (too few points, nonpositive values)."""


class PlotError(ValueError):
    """Plot rendering received empty or malformed data."""
