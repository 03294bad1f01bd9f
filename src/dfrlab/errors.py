"""Exception types shared across the package.

The CLI maps these onto process exit codes: invalid input -> 2,
solver non-convergence -> 3, experiment gate failure -> 4.
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


class OutsideSupportError(RuntimeError):
    """Recovery was requested at a state the support estimator rejects."""

    def __init__(self, message, t=None, g_value=None):
        super().__init__(message)
        self.t = t
        self.g_value = g_value


class GateFailureError(RuntimeError):
    """An experiment's statistical gate did not pass."""
