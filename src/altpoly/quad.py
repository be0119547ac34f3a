"""Weighted integration on [0,1] and the semi-axis.

The exact Beta-moment expansion is the oracle for every inner product whose
integrand is polynomial times the weight. It runs on integers for every
input, float coefficients and exponents at their exact binary values: the
product polynomial over one common denominator, one moment seed at the
lowest power, and the moment ratios
mu_{i+1}/mu_i = (alpha+i+1)/(alpha+beta+i+2) for the rest, so an inner
product costs one Beta moment. The result is exact when every input is
rational and the seed is, and rounded once to a float otherwise. Floating
Gauss--Jacobi rules (built by Golub--Welsch from the recurrence
coefficients of the classical family mapped to [0,1]) serve general
integrands and cross-checks. Semi-axis
integrals with weight exp(-alpha t)(1-exp(-t))**beta reduce to [0,1] through
x = exp(-t).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import DivergenceError, RootFindingError
from .exact import (
    ExactnessError,
    exact_gamma2_ratio,
    is_exact,
    over_common_denominator,
    simplify_scalar,
)
from .poly import DensePoly

UNIT_INTERVAL = "unit-interval"
SEMI_AXIS = "semi-axis"


@dataclass(frozen=True)
class QuadRule:
    """Quadrature nodes and weights with a domain tag and weight descriptor."""

    nodes: tuple
    weights: tuple
    domain: str
    weight_desc: tuple

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights must have equal length")
        if self.domain not in (UNIT_INTERVAL, SEMI_AXIS):
            raise ValueError(f"unknown domain {self.domain!r}")
        lo, hi = (0.0, 1.0) if self.domain == UNIT_INTERVAL else (0.0, math.inf)
        for i, x in enumerate(self.nodes):
            if not lo < x < hi:
                raise ValueError(f"node {x} outside the open domain")
            if i and not self.nodes[i - 1] < x:
                raise ValueError("nodes must be strictly increasing")
        if self.weight_desc and self.weight_desc[0] == "gauss-jacobi":
            if any(w <= 0 for w in self.weights):
                raise ValueError("Gauss-Jacobi weights must be positive")

    def to_csv(self) -> str:
        lines = ["node,weight"]
        for x, w in zip(self.nodes, self.weights):
            lines.append(f"{x!r},{w!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "domain": self.domain,
                "weight": list(self.weight_desc),
                "nodes": list(self.nodes),
                "weights": list(self.weights),
            }
        )


def beta_moment(a, b):
    """Integral of x**a (1-x)**b over [0,1]: Gamma(a+1)Gamma(b+1)/Gamma(a+b+2).

    Exact for rational exponents with denominator 1 or 2 (a rational, or a
    rational multiple of pi when both exponents are half-odd); float otherwise.
    """
    if not (a > -1 and b > -1):
        raise DivergenceError(f"beta moment diverges for exponents ({a}, {b})")
    if is_exact(a) and is_exact(b):
        try:
            return simplify_scalar(exact_gamma2_ratio(Fraction(a) + 1, Fraction(b) + 1,
                                                      Fraction(a) + Fraction(b) + 2))
        except ExactnessError:
            pass
    af, bf = float(a), float(b)
    return math.exp(math.lgamma(af + 1) + math.lgamma(bf + 1) - math.lgamma(af + bf + 2))


def weighted_inner_product(p: DensePoly, q: DensePoly, alpha, beta):
    """Inner product of two polynomials under the weight x**alpha (1-x)**beta,
    as the finite sum sum_i c_i mu_i, mu_i = beta_moment(alpha+i, beta), of
    the product's coefficients c_i.

    One route for every input: the product is formed on integers over one
    denominator, float coefficients and exponents entering at their exact
    binary values, and the sum is taken as mu_low * sum_i c_i mu_i/mu_low:
    one moment seed at the lowest power, the ratios from
    mu_{i+1}/mu_i = (alpha+i+1)/(alpha+beta+i+2) in integers, and one product
    with the seed at the end. That product is the result, a Fraction or
    PiRational, when every input is rational and the seed is exact
    (exponent denominators 1 and 2); otherwise it is rounded once to a float.
    """
    (pn, pd, p_rational), (qn, qd, q_rational) = _integers(p), _integers(q)
    rational = p_rational and q_rational and is_exact(alpha) and is_exact(beta)
    if not pn or not qn:
        return Fraction(0) if rational else 0.0
    prod = [0] * (len(pn) + len(qn) - 1)
    for i, u in enumerate(pn):
        if u:
            for j, v in enumerate(qn):
                prod[i + j] += u * v
    den = pd * qd
    low = next(i for i, c in enumerate(prod) if c)
    a, b = Fraction(alpha), Fraction(beta)
    if not a + low > -1:
        raise DivergenceError(
            f"inner product diverges: lowest monomial x^{low} against alpha = {alpha}")
    seed = beta_moment(a + low, b)
    # Horner from the top: value_i = c_i + value_{i+1} mu_{i+1}/mu_i, where
    # mu_{i+1}/mu_i = (d alpha + d (i+1)) / (d alpha + d beta + d (i+2))
    (big_a, big_b), d = over_common_denominator((a, b))
    big_ab = big_a + big_b
    top = len(prod) - 1
    num, scale = prod[top], 1
    for i in range(top - 1, low - 1, -1):
        ratio_num, ratio_den = big_a + d * (i + 1), big_ab + d * (i + 2)
        num, scale = prod[i] * ratio_den * scale + ratio_num * num, ratio_den * scale
    total = Fraction(num, scale * den)
    if rational and is_exact(seed):
        return simplify_scalar(seed * total)
    return float((seed if is_exact(seed) else Fraction(seed)) * total)


def _integers(p: DensePoly) -> tuple[list[int], int, bool]:
    """p's coefficients as integers over one denominator, floats entering at
    their exact binary values, and whether every coefficient was rational."""
    if all(isinstance(c, Rational) for c in p.coeffs):
        return (*over_common_denominator(p.coeffs), True)
    return (*over_common_denominator([Fraction(c) for c in p.coeffs]), False)


def check_jacobi_weight(m: int, a, b) -> tuple[float, float]:
    """The exponents as floats, after checking that m >= 1, that the weight
    x**a (1-x)**b is integrable and that a and b fit in a float."""
    if m < 1:
        raise ValueError("need at least one node")
    try:
        af, bf = float(a), float(b)
    except OverflowError as exc:
        raise range_error(m, a, b) from exc
    if not (af > -1 and bf > -1):
        raise DivergenceError(f"Gauss-Jacobi weight needs a, b > -1 (a = {a}, b = {b}, m = {m})")
    return af, bf


def range_error(m: int, a, b) -> RootFindingError:
    """The refusal for exponents whose Jacobi matrix, or Beta moment, leaves
    the double range."""
    return RootFindingError(f"exponents too large for floats: the Jacobi matrix or Beta "
                            f"moment for a = {a}, b = {b}, m = {m} leaves the double range")


def _first_offsq(a: float, b: float) -> float:
    """First squared off-diagonal entry, in Python floats: ** goes through
    libm pow, which need not round a square as x * x does, so numpy's square
    could change its last bit. inf where the square overflows."""
    apb = a + b
    try:
        return 4 * (a + 1) * (b + 1) / ((apb + 2) ** 2 * (apb + 3))
    except OverflowError:
        return math.inf


def jacobi_matrices(m: int, a, b):
    """Stack of the symmetric tridiagonal Jacobi matrices of the monic
    classical Jacobi family for weight (1-y)^a (1+y)^b on [-1,1], one per
    pair of float exponents a[r], b[r], as a dense (len(a), m, m) array.

    Each entry is the classical scalar formula evaluated with the same float
    operations in the same order as a Python-float loop over one pair (the
    reference in tests/test_quad.py), so row r is bit for bit the matrix of
    pair r alone. A pair whose entries leave the double range gives a matrix
    that is not finite; callers check.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    apb = a + b
    mats = np.zeros((len(a), m, m))
    flat = mats.reshape(len(a), m * m)
    diag, upper, lower = flat[:, ::m + 1], flat[:, 1::m + 1], flat[:, m::m + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        diag[:, :1] = (b - a) / (apb + 2)
        s = np.arange(2.0, 2 * m, 2) + apb            # s = 2i + a + b, i = 1..m-1
        diag[:, 1:] = (b * b - a * a) / (s * (s + 2))
        if m > 1:
            upper[:, 0] = [_first_offsq(x, y) for x, y in zip(a[:, 0].tolist(), b[:, 0].tolist())]
            ip1 = np.arange(2, m, dtype=float)        # i + 1, i = 1..m-2
            t = 2 * ip1 + apb
            upper[:, 1:] = 4 * ip1 * (ip1 + a) * (ip1 + b) * (ip1 + apb) / ((t * t - 1) * t * t)
            np.sqrt(upper, out=upper)
            lower[:] = upper
    return mats


def golub_welsch(mats):
    """Gauss nodes on [0,1], ascending, and the squared first components of
    their unit eigenvectors, for a stack of Jacobi matrices: one
    numpy.linalg.eigh call, shapes (len(mats), m) both. The weights of a rule
    are mu0 times the second."""
    import numpy as np

    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RootFindingError(f"tridiagonal eigen-solve failed: {exc}") from exc
    # eigh returns y ascending; y in [-1,1] with weight (1-y)^a (1+y)^b maps
    # to x = (1-y)/2 on [0,1], so reversing makes x ascend
    return (1 - vals[:, ::-1]) / 2, vecs[:, 0, ::-1] ** 2


def gauss_jacobi_rule(m: int, a, b) -> QuadRule:
    """m-node Gauss rule on [0,1] for the weight x**a (1-x)**b, exact for
    polynomial degree <= 2m-1. Golub--Welsch on a stack of one Jacobi matrix
    (jacobi_matrices, golub_welsch), mapped from [-1,1]; the weights are the
    Beta moment mu0 times the squared first eigenvector components.
    RootFindingError naming a, b and m refuses a Jacobi matrix or a Beta
    moment that leaves the double range, nodes that round to x = 0 or 1 or
    coincide (exponents from about 1e16) and a weight that underflows
    (m = 30 from a = b = 502).
    """
    import numpy as np

    af, bf = check_jacobi_weight(m, a, b)
    mats = jacobi_matrices(m, [af], [bf])
    if not np.isfinite(mats).all():
        raise range_error(m, a, b)
    x, v0sq = golub_welsch(mats)
    try:
        mu0 = float(beta_moment(a, b))
    except OverflowError as exc:        # the float lgamma fallback, m = 1 only
        raise range_error(m, a, b) from exc
    x, w = x[0], mu0 * v0sq[0]
    if not (0 < x[0] and x[-1] < 1 and (x[1:] > x[:-1]).all()):
        raise RootFindingError(f"nodes round to 0 or 1 or coincide for a = {a}, b = {b}, m = {m}")
    if not (w > 0).all():
        raise RootFindingError(f"a weight underflows to 0 for a = {a}, b = {b}, m = {m}")
    return QuadRule(tuple(float(v) for v in x), tuple(float(v) for v in w),
                    UNIT_INTERVAL, ("gauss-jacobi", float(a), float(b)))


def integrate_unit(f, rule: QuadRule) -> float:
    """Weighted quadrature sum over a unit-interval rule."""
    if rule.domain != UNIT_INTERVAL:
        raise ValueError("rule is not on the unit interval")
    return float(sum(w * f(x) for x, w in zip(rule.nodes, rule.weights)))


_DECAY_PROBE_T = 46.0   # e^-46 ~ 1e-20: x-side endpoint probe


def integrate_semi_axis(g, alpha, beta, m: int = 24):
    """Integral over [0, inf) of exp(-alpha t)(1-exp(-t))**beta g(t).

    Contract: the substitution x = exp(-t) turns this into the [0,1] integral
    of x**(alpha-1) (1-x)**beta g(-ln x).

    * g given as a DensePoly is treated as a polynomial in exp(-t) and
      integrated exactly through the Beta-moment expansion.
    * g callable is integrated with an m-node Gauss-Jacobi rule; for
      alpha <= 0 the leftover power of x is folded into the integrand, which
      must then decay (checked with a far-field probe).
    """
    if isinstance(g, DensePoly):
        pulled_alpha = (Fraction(alpha) if is_exact(alpha) else float(alpha)) - 1
        return weighted_inner_product(g, DensePoly.one(), pulled_alpha, beta)
    af, bf = float(alpha), float(beta)
    if af - 1 > -1:
        rule = gauss_jacobi_rule(m, af - 1, bf)
        return integrate_unit(lambda x: g(-math.log(x)), rule)
    residual_decay = abs(g(_DECAY_PROBE_T)) * math.exp(-af * _DECAY_PROBE_T)
    if residual_decay > 1e-8:
        raise DivergenceError(
            f"integrand does not decay on the semi-axis (probe {residual_decay:.3g})")
    rule = gauss_jacobi_rule(m, 0.0, bf)
    return integrate_unit(lambda x: x ** (af - 1) * g(-math.log(x)), rule)
