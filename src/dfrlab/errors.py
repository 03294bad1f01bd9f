"""Exception types shared across the package.

The CLI maps these onto process exit codes: invalid input -> 2,
solver non-convergence -> 3, experiment gate failure -> 4.  Leaving the
estimated support is not an error: the recovery loop records it as its
step's halt, and the episode ends halted (records.py).
"""


class InvalidInputError(ValueError):
    """Bad arguments, malformed files, or violated preconditions."""


class InsufficientDataError(InvalidInputError):
    """A demonstration time slice is too thin to fit an estimator."""


class SolverNonConvergenceError(RuntimeError):
    """The dual solver hit its iteration cap before meeting tolerance.

    Carries the best iterate so callers can inspect how far the solve got.
    """

    def __init__(self, message, best_model=None):
        super().__init__(message)
        self.best_model = best_model


class GateFailureError(RuntimeError):
    """An experiment's statistical gate did not pass."""
