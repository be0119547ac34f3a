"""Weighted integration on [0,1] and the semi-axis.

The exact Beta-moment expansion (weighted_inner_product) is the oracle for
every inner product whose integrand is polynomial times the weight: one
route on DensePoly's integers for every input, exact when every input is
rational and its one Beta-moment seed is, else rounded once to a float.
Floating Gauss--Jacobi rules (built by Golub--Welsch from the recurrence
coefficients of the classical family mapped to [0,1]) serve general
integrands and cross-checks. Semi-axis integrals with weight
exp(-alpha t)(1-exp(-t))**beta reduce to [0,1] through x = exp(-t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivergenceError, RootFindingError
from .exact import (at_binary_values, exact_param, finite_param, gamma2_ratio, is_exact,
                    over_common_denominator, simplify_scalar, whole_index)
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


def beta_moment(a, b):
    """Integral of x**a (1-x)**b over [0,1]: Gamma(a+1)Gamma(b+1)/Gamma(a+b+2).

    Exact for rational exponents with denominator 1 or 2 (a rational, or a
    rational multiple of pi when both exponents are half-odd); float
    otherwise. Both by exact.gamma2_ratio, on the exponents normalized by
    exact.exact_param (whole ones as ints); ValueRangeError naming its
    arguments when the float leaves the double range or is nan (an infinite
    exponent).
    """
    a, b = exact_param(a), exact_param(b)
    if not (a > -1 and b > -1):
        raise DivergenceError(f"beta moment diverges for exponents ({a}, {b})")
    return gamma2_ratio(a + 1, b + 1, a + b + 2)


def weighted_inner_product(p: DensePoly, q: DensePoly, alpha, beta):
    """Inner product of two polynomials under the weight x**alpha (1-x)**beta,
    alpha and beta finite, as the finite sum sum_i c_i mu_i,
    mu_i = beta_moment(alpha+i, beta), of the product's coefficients c_i.

    One route for every input: the product is the exact DensePoly product,
    integers over one denominator, float coefficients and exponents entering
    at their exact binary values, and the sum is taken as mu_low * sum_i
    c_i mu_i/mu_low: one moment seed at the lowest power, the ratios from
    mu_{i+1}/mu_i = (alpha+i+1)/(alpha+beta+i+2) in integers, and one product
    with the seed at the end. That product is the result, a Fraction or
    PiRational, when every input is rational and the seed is exact
    (exponent denominators 1 and 2); otherwise it is rounded once to a float.
    """
    alpha, beta = finite_param("alpha", alpha), finite_param("beta", beta)
    exact_polys = p.mode == q.mode == "exact"
    rational = exact_polys and is_exact(alpha) and is_exact(beta)
    prod = p * q if exact_polys else \
        DensePoly(at_binary_values(*p.coeffs)) * DensePoly(at_binary_values(*q.coeffs))
    if prod.is_zero:
        return Fraction(0) if rational else 0.0
    c, low = prod.numerators, prod.lowest_power
    a, b = at_binary_values(alpha, beta)
    if not a + low > -1:
        raise DivergenceError(
            f"inner product diverges: lowest monomial x^{low} against alpha = {alpha}")
    seed = beta_moment(a + low, b)
    # Horner from the top: value_i = c_i + value_{i+1} mu_{i+1}/mu_i, where
    # mu_{i+1}/mu_i = (d alpha + d (i+1)) / (d alpha + d beta + d (i+2))
    (big_a, big_b), d = over_common_denominator((a, b))
    big_ab = big_a + big_b
    num, scale = c[-1], 1
    for i in range(len(c) - 2, low - 1, -1):
        ratio_num, ratio_den = big_a + d * (i + 1), big_ab + d * (i + 2)
        num, scale = c[i] * ratio_den * scale + ratio_num * num, ratio_den * scale
    total = Fraction(num, scale * prod.denominator)
    if rational and is_exact(seed):
        return simplify_scalar(seed * total)
    return float((seed if is_exact(seed) else Fraction(seed)) * total)


def check_jacobi_weight(m: int, a, b) -> tuple:
    """(a, b, af, bf): the exponents normalized by exact.exact_param (so
    "p/q" strings read as Fractions) and as floats, after checking that
    m >= 1 (exact.whole_index), that the weight x**a (1-x)**b is integrable
    and that a and b fit in a float."""
    whole_index("m", m, 1)
    a, b = exact_param(a), exact_param(b)
    try:
        af, bf = float(a), float(b)
    except OverflowError as exc:
        raise range_error(m, a, b) from exc
    if not (af > -1 and bf > -1):
        raise DivergenceError(f"Gauss-Jacobi weight needs a, b > -1 (a = {a}, b = {b}, m = {m})")
    return a, b, af, bf


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


def jacobi_entries(m: int, a, b) -> tuple:
    """The two diagonals of the symmetric tridiagonal Jacobi matrices of the
    monic classical Jacobi family for weight (1-y)^a (1+y)^b on [-1,1], one
    matrix per pair of float exponents a[r], b[r] > -1: (diag, off), shapes
    (len(a), m) and (len(a), m - 1), for golub_welsch.

    Each entry is the classical scalar formula evaluated with the same float
    operations in the same order as a Python-float loop over one pair (the
    reference in tests/test_quad.py), so row r is bit for bit the entries of
    pair r alone. Two executions of that one formula: a stack of one pair
    (every rule, every e_zeros, each bisection step of the Z search) is
    built entry by entry in Python floats and returned as lists, where
    numpy's per-call cost on (1, m) arrays would outweigh the arithmetic; a
    longer stack (the Z search's candidate blocks) by numpy operations over
    the rows, returned as arrays. A pair whose entries leave the double
    range has entries that are not finite; golub_welsch flags it.
    """
    if len(a) == 1:
        return _one_jacobi_entries(m, float(a[0]), float(b[0]))
    import numpy as np

    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    apb = a + b
    diag, offsq = np.empty((len(a), m)), np.empty((len(a), m - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        diag[:, :1] = (b - a) / (apb + 2)
        s = np.arange(2.0, 2 * m, 2) + apb            # s = 2i + a + b, i = 1..m-1
        diag[:, 1:] = (b * b - a * a) / (s * (s + 2))
        if m > 1:
            offsq[:, 0] = [_first_offsq(x, y) for x, y in zip(a[:, 0].tolist(), b[:, 0].tolist())]
            ip1 = np.arange(2, m, dtype=float)        # i + 1, i = 1..m-2
            t = 2 * ip1 + apb
            offsq[:, 1:] = 4 * ip1 * (ip1 + a) * (ip1 + b) * (ip1 + apb) / ((t * t - 1) * t * t)
        return diag, np.sqrt(offsq)


def _one_jacobi_entries(m: int, a: float, b: float) -> tuple:
    """jacobi_entries for the one pair (a, b): its operations in its order,
    on Python floats, whose +, -, *, / and math.sqrt round correctly as
    numpy's do and overflow to inf (or nan) as its errstate lets them. With
    a, b > -1 no divisor is zero and no square root's argument negative,
    where Python floats would raise."""
    apb, bb_aa = a + b, b * b - a * a
    diag = [(b - a) / (apb + 2)]
    for i in range(1, m):
        s = 2.0 * i + apb
        diag.append(bb_aa / (s * (s + 2)))
    offsq = [_first_offsq(a, b)] if m > 1 else []
    for ip1 in range(2, m):
        t = 2.0 * ip1 + apb
        offsq.append(4.0 * ip1 * (ip1 + a) * (ip1 + b) * (ip1 + apb) / ((t * t - 1) * t * t))
    return [diag], [[math.sqrt(v) for v in offsq]]


def golub_welsch(diag, off) -> tuple:
    """(x, v0sq, finite) for a stack of Jacobi matrices given as
    jacobi_entries gives them: row r of x the Gauss nodes on [0,1] of matrix
    r, ascending, of v0sq the squared first components of their unit
    eigenvectors (a rule's weights are mu0 times them), and finite[r]
    whether matrix r stays in the double range. The one dense layout: the
    entries fill the lower triangle of a (rows, m, m) array, all that the
    one numpy.linalg.eigh call reads; a matrix that is not finite is zeroed
    to keep that call defined, and its rows are the caller's to refuse."""
    import numpy as np

    rows, m = len(diag), len(diag[0])
    mats = np.zeros((rows, m, m))
    flat = mats.reshape(rows, m * m)
    flat[:, ::m + 1], flat[:, m::m + 1] = diag, off
    finite = np.isfinite(flat).all(axis=1)
    mats[~finite] = 0.0
    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RootFindingError(f"tridiagonal eigen-solve failed: {exc}") from exc
    # eigh returns y ascending; y in [-1,1] with weight (1-y)^a (1+y)^b maps
    # to x = (1-y)/2 on [0,1], so reversing makes x ascend
    return (1 - vals[:, ::-1]) / 2, vecs[:, 0, ::-1] ** 2, finite


def gauss_jacobi_rule(m: int, a, b) -> QuadRule:
    """m-node Gauss rule on [0,1], m >= 1, for the weight x**a (1-x)**b,
    exact for polynomial degree <= 2m-1. Golub--Welsch on a stack of one
    Jacobi matrix (jacobi_entries, golub_welsch), mapped from [-1,1]; the
    weights are the Beta moment mu0 times the squared first eigenvector
    components.
    RootFindingError naming a, b and m refuses a Jacobi matrix (by
    golub_welsch's flag) or a Beta moment that leaves the double range,
    nodes that round to x = 0 or 1 or coincide (exponents from about 1e16)
    and a weight that underflows (m = 30 from a = b = 502).
    """
    a, b, af, bf = check_jacobi_weight(m, a, b)
    x, v0sq, finite = golub_welsch(*jacobi_entries(m, [af], [bf]))
    if not finite[0]:
        raise range_error(m, a, b)
    try:
        mu0 = float(beta_moment(a, b))
    except OverflowError as exc:        # the float lgamma fallback, m = 1 only
        raise range_error(m, a, b) from exc
    x, w = tuple(x[0].tolist()), tuple((mu0 * v0sq[0]).tolist())
    if not (0 < x[0] and x[-1] < 1 and all(u < v for u, v in zip(x, x[1:]))):
        raise RootFindingError(f"nodes round to 0 or 1 or coincide for a = {a}, b = {b}, m = {m}")
    if not all(v > 0 for v in w):
        raise RootFindingError(f"a weight underflows to 0 for a = {a}, b = {b}, m = {m}")
    return QuadRule(x, w, UNIT_INTERVAL, ("gauss-jacobi", af, bf))


def integrate_unit(f, rule: QuadRule) -> float:
    """Weighted quadrature sum over a unit-interval rule."""
    if rule.domain != UNIT_INTERVAL:
        raise ValueError("rule is not on the unit interval")
    return float(sum(w * f(x) for x, w in zip(rule.nodes, rule.weights)))


def integrate_semi_axis(g, alpha, beta, m: int = 24):
    """Integral over [0, inf) of exp(-alpha t)(1-exp(-t))**beta g(t).

    Contract: the substitution x = exp(-t) turns this into the [0,1] integral
    of x**(alpha-1) (1-x)**beta g(-ln x), alpha and beta by exact.exact_param.

    * g given as a DensePoly is treated as a polynomial in exp(-t) and
      integrated exactly through the Beta-moment expansion at alpha - 1
      formed exactly, the value rounded once to a float for a float alpha;
      an infinite or nan alpha or beta raises ValueError naming it.
    * g callable is integrated with the m-node Gauss-Jacobi rule for the
      weight x**(alpha-1) (1-x)**beta, so it needs alpha > 0: g's decay
      belongs in alpha, and alpha <= 0 (or nan) raises DivergenceError.
      g(-ln x) must be smooth at x = 0, or the sum converges slowly in m and
      nothing reports it: g(t) = exp(-t/4) at alpha = 1/4 reads 2.0301 for 2.
    """
    alpha, beta = exact_param(alpha), exact_param(beta)
    if isinstance(g, DensePoly):
        value = weighted_inner_product(
            g, DensePoly.one(), Fraction(finite_param("alpha", alpha)) - 1, beta)
        return value if is_exact(alpha) else float(value)
    af, bf = float(alpha), float(beta)
    if not af - 1 > -1:
        raise DivergenceError(
            f"a callable integrand needs alpha > 0 (alpha - 1 > -1 in floats), got "
            f"alpha = {alpha}: put the decay of g into alpha")
    rule = gauss_jacobi_rule(m, af - 1, bf)
    return integrate_unit(lambda x: g(-math.log(x)), rule)
