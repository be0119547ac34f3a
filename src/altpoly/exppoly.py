"""Orthogonal exponential polynomials on the semi-axis.

A system member is the alternative polynomial with first parameter shifted
down by one, evaluated at exp(-t); the k = n member is exp(-n t) and each
member is a combination of exp(-k t) .. exp(-n t). The k = 0 associated
function is excluded from the orthogonal system (it is not normalizable) but
its zeros supply the abscissas of the Gauss-type quadrature, which is exact
on exp(-2t) .. exp(-(2n+1)t) and deliberately not on constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CoefficientOverflowError, DivergenceError, RootFindingError
from .exact import finite_param, whole_index
from .marginal import a_coefficients, t_scaling
from .poly import DensePoly
from .polycore import (PolyParams, ajp_norm_h, direct_coefficients, jacobi_rows,
                       shifted_jacobi_coefficients)
from .quad import (
    SEMI_AXIS,
    UNIT_INTERVAL,
    QuadRule,
    check_jacobi_weight,
    gauss_jacobi_rule,
    golub_welsch,
    jacobi_entries,
    range_error,
)


@dataclass(frozen=True)
class ExpPolySystem:
    """Exponential system for finite exponents alpha, beta > -1, sizes
    k = 1..n with n >= 1, plus the k = 0 associated function. alpha and
    beta are held as exact.finite_param gives them, as in PolyParams."""

    alpha: object
    beta: object
    n: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", finite_param("alpha", self.alpha))
        object.__setattr__(self, "beta", finite_param("beta", self.beta))
        if not (self.alpha > -1 and self.beta > -1):
            raise ValueError("system needs alpha > -1 and beta > -1")
        object.__setattr__(self, "n", whole_index("n", self.n, 1))

    def member_poly(self, k: int) -> DensePoly:
        """Coefficients of the member k in 0..n+1 as a polynomial in
        x = exp(-t): the direct polynomial D_{k,n}^{(alpha,beta)} =
        x^k P_{n-k}^{(alpha+2k, beta)}(1-2x) of polycore.direct_coefficients,
        whose first parameter is shifted exactly (a float alpha - 1 would
        round); zero for k = n + 1."""
        if whole_index("k", k, 0, self.n + 1) == self.n + 1:
            return DensePoly.zero()
        return direct_coefficients(self.alpha, self.beta, k, self.n)


def semi_axis_point(t) -> float:
    """t as a float; ValueError naming it for t < 0, where x = exp(-t) > 1
    lies outside the members' [0, 1]."""
    t = float(t)
    if t < 0:
        raise ValueError(f"exponential members live on t >= 0, got t = {t}")
    return t


def e_eval(sys: ExpPolySystem, k: int, t) -> float:
    """Member value at t >= 0, x = exp(-t), for k in 0..n+1: row k of
    member_values for k = 0..n (k = 0 is the associated function), zero for
    k = n + 1. ValueError names a t < 0, where x > 1 lies outside the
    members' [0, 1]."""
    n = sys.n
    k = whole_index("k", k, 0, n + 1)
    x = math.exp(-semi_axis_point(t))
    return float(member_values(sys.alpha, sys.beta, n, (x,), k, k)[0, 0]) if k <= n else 0.0


def e_norm(sys: ExpPolySystem, k: int):
    """Squared weighted norm on the semi-axis, k in 1..n:
    1/(alpha+2k) * Gamma(alpha+n+k+1) Gamma(beta+n-k+1) /
    ((n-k)! Gamma(alpha+beta+n+k+1)); k = 0, the associated function, which
    is not part of the orthogonal system, raises DivergenceError."""
    if k == 0:
        whole_index("k", k)     # 0.0 is not the index 0
        raise DivergenceError("associated function is not integrable on the semi-axis")
    k = whole_index("k", k, 1, sys.n)
    # the alternative-family member at (alpha - 1, beta)
    return ajp_norm_h(PolyParams(sys.alpha - 1, sys.beta, sys.n, k))


@dataclass(frozen=True)
class ZeroSet:
    """Ordered zeros of the associated function: lambdas ascending on the
    t-axis, source_x the matching zeros on (0,1) with lambda = -ln x."""

    alpha: float
    beta: float
    n: int
    lambdas: tuple
    source_x: tuple
    residuals: tuple

    def max_lambda(self) -> float:
        return self.lambdas[-1]


def e_zeros(alpha, beta, n: int) -> ZeroSet:
    """Zeros of the associated function as lambda = -ln x, ascending. Its
    x-form is P_n^(alpha,beta)(1-2x), so the zeros are the nodes of the
    Gauss-Jacobi rule for x**alpha (1-x)**beta: one Golub--Welsch solve of
    the pair, eigenvalues only, then guarded_zero_set on its row.

    Valid for n >= 1 (a ValueError names n), alpha > -1 and beta > -1
    (a DivergenceError names a = alpha, b = beta, m = n). Exponents too
    large for floats raise RootFindingError (the Jacobi matrix leaves the
    double range) or CoefficientOverflowError (the guard's member does).
    Residuals: float Horner value of the exact member, rounded once per
    coefficient, at each zero over its largest coefficient magnitude; above
    1e-13, zeros closer than 1e-12, or a zero that rounds to x = 0 or 1,
    raise RootFindingError."""
    n = whole_index("n", n, 1)
    alpha, beta, a, b = check_jacobi_weight(n, alpha, beta)
    x, _, finite = golub_welsch(*jacobi_entries(n, [a], [b]))
    return guarded_zero_set(n, alpha, beta, x[0, ::-1], finite[0])


def guarded_zero_set(n: int, alpha, beta, x, finite=True) -> ZeroSet:
    """The ZeroSet of one pair from its zeros x, a numpy row descending in
    x, and golub_welsch's range flag for its Jacobi matrix, after the guards
    of e_zeros in their order: the flag, the exact member in the double
    range, the zeros inside (0, 1), at least 1e-12 apart, and residuals at
    most 1e-13 (Horner on the member rounded once per coefficient, over its
    largest coefficient magnitude, in Python floats: the float operations
    of DensePoly.__call__ at each zero)."""
    if not finite:
        raise range_error(n, alpha, beta)
    try:
        coeffs = shifted_jacobi_coefficients(n, alpha, beta).to_floats().coeffs
    except OverflowError:
        raise CoefficientOverflowError(n, 0, alpha, beta,
                                       "the zero guard evaluates it in floats") from None
    xt = x.tolist()
    if not (xt[0] < 1 and xt[-1] > 0):
        raise RootFindingError(
            f"zeros from x = {xt[-1]!r} to {xt[0]!r} leave the open "
            f"interval (0, 1) for alpha = {alpha}, beta = {beta}, n = {n}")
    if any(u - v < 1e-12 for u, v in zip(xt, xt[1:])):
        raise RootFindingError("zeros are not simple (cluster detected)")
    top, scale = coeffs[::-1], max(abs(c) for c in coeffs)
    residuals = []
    for v in xt:
        acc = 0.0
        for c in top:
            acc = acc * v + c
        residuals.append(abs(acc) / scale)
    if not all(r <= 1e-13 for r in residuals):
        worst = math.nan if any(math.isnan(r) for r in residuals) else max(residuals)
        raise RootFindingError(f"zero residual too large: {worst:.3g}")
    return ZeroSet(float(alpha), float(beta), n, tuple(-math.log(v) for v in xt), tuple(xt),
                   tuple(residuals))


def legendre_type_quadrature(n: int) -> QuadRule:
    """n-node rule on [0,1], n >= 1, exact for x, x^2, ..., x^(2n) but not
    for constants: the Gauss-Jacobi rule for the weight x (exact on x * x^j,
    j <= 2n-1) with each weight divided by its node."""
    n = whole_index("n", n, 1)
    rule = gauss_jacobi_rule(n, 1, 0)
    weights = tuple(w / x for x, w in zip(rule.nodes, rule.weights))
    return QuadRule(rule.nodes, weights, UNIT_INTERVAL, ("legendre-type", n))


def semi_axis_rule(n: int) -> QuadRule:
    """Gauss-type rule on the semi-axis, n >= 1: t_s = -ln x_s,
    v_s = w_s / x_s over the nodes x_s and weights w_s of
    legendre_type_quadrature, taken in reverse so that t_s ascends;
    integrates exp(-m t) exactly to 1/m for m = 2..2n+1."""
    n = whole_index("n", n, 1)
    unit = legendre_type_quadrature(n)
    pairs = list(zip(unit.nodes, unit.weights))[::-1]
    return QuadRule(tuple(-math.log(x) for x, _ in pairs), tuple(w / x for x, w in pairs),
                    SEMI_AXIS, ("semi-axis-exp", n))


def ea_eval(n: int, k: int, t) -> float:
    """A-kind exponential member: the (0, 0) system's member, by e_eval."""
    return e_eval(ExpPolySystem(0, 0, n), k, t)


def et_eval(n: int, k: int, t) -> float:
    """T-kind exponential member: the (-1/2, -1/2) system's member, by
    e_eval, times marginal.t_scaling(n, k) rounded once for k = 0..n; e_eval
    returns zero for k = n + 1 and refuses the other k."""
    value = e_eval(ExpPolySystem(-0.5, -0.5, n), k, t)
    return value * float(t_scaling(n, k)) if k <= n else value


def ea_derivative_relation_residual(n: int, k: int, t) -> float:
    """Residual of d/dt [E_{n,k-1} + E_{nk}] = -(k-1) E_{n,k-1} + k E_{nk}
    for the A-kind exponential system, n >= 1 and k in 1..n, computed
    symbolically in exp(-t) and evaluated at t >= 0 (semi_axis_point);
    identically zero."""
    n = whole_index("n", n, 1)
    k = whole_index("k", k, 1, n)
    p, q = a_coefficients(n, k - 1), a_coefficients(n, k)
    # d/dt maps the coefficient of exp(-j t) to -j times itself: -x d/dx
    ddt = -(p + q).derivative().shift_up()
    rhs = p.scale(-(k - 1)) + q.scale(k)
    return float((ddt - rhs)(math.exp(-semi_axis_point(t))))


def member_values(alpha, beta, n: int, xs, lo: int = 1, hi: int | None = None):
    """Float values of the system members k = lo..hi (hi = n by default) at
    the points xs in [0, 1], as a numpy array whose row k - lo is the member
    in x = exp(-t): x**k * P_{n-k}^{(alpha+2k, beta)}(1-2x), the composition
    identity for the (alpha - 1, beta) alternative family; k = 0 is the
    associated function P_n^{(alpha, beta)}(1-2x). The rows of
    polycore.jacobi_rows at a = alpha, by the three-term recurrence."""
    return jacobi_rows(alpha, beta, n, xs, lo, hi)


@dataclass(frozen=True)
class ProjectionResult:
    coeffs: tuple
    error: float


def project(f, sys: ExpPolySystem) -> ProjectionResult:
    """Least-squares coefficients of f in the system, under the system weight:
    c_k = <f, member_k> / norm_k for k = 1..n, plus the weighted L2
    reconstruction error.

    The inner products pull back to [0,1]: the factor x**(alpha-1) times the
    member's x**k lowest power leaves x**alpha times a polynomial, so an
    (alpha, beta) Gauss rule on the unit interval handles them with
    f(-ln x) as the only non-polynomial factor. Members come from
    member_values and norms from the e_norm closed form on float parameters;
    the error is the weighted sum of squared residuals. One (alpha, beta)
    rule of max(4n + 16, 48) nodes serves both: one Golub-Welsch solve, one
    member_values pass and one pass of f over its nodes. For exp(-r t),
    r = 1..n, which lies in the span, coefficients and error agree with the
    exact projection to 1e-12 up to n = 40. f(-ln x) must be smooth at
    x = 0, or the sum converges slowly in the node count and nothing reports
    it: an exp target at a rate that is not a whole number, or any t times
    exp(-r t), loses digits (alpha = 1, beta = 0, n = 3, exp(0.25 t) is off
    by 6.4e-6).

    f must be square-integrable under the system weight, the integral of
    f(t)**2 exp(-alpha t) (1 - exp(-t))**beta over [0, inf) finite. A
    callable's growth cannot be checked here, and for an f that is not the
    rule still returns a finite error: exp(0.6 t) at alpha = 1, beta = 0,
    n = 3 gives 3.65 where the residual norm diverges. `altpoly project`
    checks its own targets first and refuses alpha + 2 rate <= 0 with
    DivergenceError.
    """
    import numpy as np

    n = sys.n
    af, bf = float(sys.alpha), float(sys.beta)
    float_sys = ExpPolySystem(af, bf, n)
    norms = np.array([e_norm(float_sys, k) for k in range(1, n + 1)])
    rule = gauss_jacobi_rule(max(4 * n + 16, 48), af, bf)
    # the weights over x (the x**(alpha-1) weight), f and the members at the nodes
    x = np.array(rule.nodes)
    fx = np.array([float(f(-math.log(v))) for v in rule.nodes])
    w = np.array(rule.weights) / x
    members = member_values(af, bf, n, x)
    coeffs = members @ (w * fx) / norms
    err2 = float(w @ (fx - coeffs @ members) ** 2)
    return ProjectionResult(tuple(float(c) for c in coeffs), math.sqrt(max(err2, 0.0)))
