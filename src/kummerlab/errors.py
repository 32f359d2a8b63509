"""Exception hierarchy shared across the package.

Two broad families: contract violations (bad input, caller error) and
numerical-tolerance failures (well-formed input, but a residual or an
iteration did not meet its target).  The CLI maps the first family to
exit code 1 and the second to exit code 2.
"""


class ValidationError(ValueError):
    """Input violates a documented contract (shape, symmetry, precondition)."""


class ToleranceFailure(RuntimeError):
    """A numerical criterion was not met."""


class IllPosedError(ToleranceFailure):
    """A comparison or solve is numerically meaningless (near-zero scale, rank loss)."""


class DegeneratePointError(ToleranceFailure):
    """All homogeneous coordinates collapsed below the accuracy floor."""


class DegenerateSecantError(ToleranceFailure):
    """Null space of the secant matrix is not one-dimensional; coefficients not unique."""


class ConvergenceFailure(ToleranceFailure):
    """An iteration ran out of budget.  Carries the trace of attempts."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class HierarchyAbort(ToleranceFailure):
    """An elimination order left a residual too large to continue."""

    def __init__(self, message, order, residual):
        super().__init__(message)
        self.order = order
        self.residual = residual
