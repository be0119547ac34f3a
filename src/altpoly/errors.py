"""Exception types shared across the package."""


class AltpolyError(Exception):
    """Base class for all package-specific failures."""


class DivergenceError(AltpolyError, ValueError):
    """An integral or moment does not converge for the given parameters."""


class NonNormalizableError(DivergenceError):
    """A squared-norm integral diverges (singular member of a marginal system)."""


class RecurrenceError(AltpolyError, RuntimeError):
    """A downward recurrence produced a polynomial that cannot be divided by x.

    Raised when an intermediate polynomial acquires a nonzero constant term
    before the left-shift step; this indicates corrupted parameters.
    """


class CoefficientOverflowError(AltpolyError, OverflowError):
    """Float member coefficients left the double range (inf, or an overflow
    while building them). Exact (rational) parameters have no such limit."""

    def __init__(self, n, k, alpha, beta):
        super().__init__(
            f"float coefficients of member (n={n}, k={k}) overflow the double range "
            f"for alpha = {alpha}, beta = {beta}; use exact parameters")


class RootFindingError(AltpolyError, RuntimeError):
    """Root finding failed: roots left the open interval, multiplicity detected,
    or the polish step did not reach the required residual."""


class FeasibilityError(AltpolyError, ValueError):
    """No candidate exponent satisfies the largest-zero constraint."""


class CollocationError(AltpolyError, RuntimeError):
    """The collocation matrix is singular or numerically unusable."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond
