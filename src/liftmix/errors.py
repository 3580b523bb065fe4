"""Exception types shared across the library.

The CLI maps these to exit codes: GraphError -> 1 (invalid input),
AnalysisError -> 1 (precondition violated), NonConvergenceError -> 2
(numerical iteration did not reach tolerance).
"""


class GraphError(ValueError):
    """Malformed graph text or a violated graph invariant."""


class AnalysisError(RuntimeError):
    """An operation's precondition does not hold for the given input."""


class NonConvergenceError(AnalysisError):
    """An iterative solver exhausted its iteration budget.

    For the first-passage solve this means Newton's method met neither its
    tolerance nor its rounding floor within the step budget, or its linear
    system became singular.  Carries the last residual (the size of the
    last Newton correction) and the steps taken, so callers can report how
    close it got.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
