"""Exception types shared across the package."""


class AltpolyError(Exception):
    """Base class for all package-specific failures."""


class DivergenceError(AltpolyError, ValueError):
    """An integral or moment does not converge for the given parameters."""


class NonNormalizableError(DivergenceError):
    """A squared-norm integral diverges (singular member of a marginal system)."""


class RecurrenceError(AltpolyError, RuntimeError):
    """A recurrence cannot take its next step.

    Raised when an intermediate polynomial acquires a nonzero constant term
    before the left-shift step, which indicates corrupted parameters, or
    when a step's denominator vanishes.
    """


class CoefficientOverflowError(AltpolyError, OverflowError):
    """Float member coefficients left the double range (inf, or an overflow
    while building them). Exact (rational) members have no such limit; the
    zero guard of e_zeros rounds its member to floats whatever the
    parameters, and says so in the note."""

    def __init__(self, n, k, alpha, beta, note="use exact parameters"):
        super().__init__(
            f"float coefficients of member (n={n}, k={k}) overflow the double range "
            f"for alpha = {alpha}, beta = {beta}; {note}")


class ValueRangeError(AltpolyError, OverflowError):
    """A float value is not finite: the three-term recurrence of
    P_m^(a,b)(1-2x) left the double range (huge a or b) or was given a
    point that is not finite, or the float Gamma ratio
    Gamma(a)Gamma(b)/Gamma(c) behind a norm, single integral or Beta moment
    left it, or the binomial that scales a float single integral did."""


class RootFindingError(AltpolyError, RuntimeError):
    """Zeros or a Gauss rule failed: the eigen-solve failed, two zeros coincide,
    a residual is above its bound, or a node or weight leaves the double range."""


class FeasibilityError(AltpolyError, ValueError):
    """No candidate exponent satisfies the largest-zero constraint."""


class CollocationError(AltpolyError, RuntimeError):
    """The collocation matrix is singular or numerically unusable."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond
