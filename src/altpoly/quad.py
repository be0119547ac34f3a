"""Weighted integration on [0,1] and the semi-axis.

The exact Beta-moment expansion is the oracle for every inner product whose
integrand is polynomial times the weight. In rational mode it runs on
integers: the product polynomial over one common denominator, one moment
seed at the lowest power, and the moment ratios
mu_{i+1}/mu_i = (alpha+i+1)/(alpha+beta+i+2) for the rest, so an inner
product costs one Beta moment. Floating Gauss--Jacobi rules (built
by Golub--Welsch from the recurrence coefficients of the classical family
mapped to [0,1]) serve general integrands and cross-checks. Semi-axis
integrals with weight exp(-alpha t)(1-exp(-t))**beta reduce to [0,1] through
x = exp(-t).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
    as a finite sum of Beta moments; exact in rational mode.

    With rational coefficients and exponents the product is formed on
    integers over one denominator, and the sum sum_i c_i mu_i, mu_i =
    beta_moment(alpha+i, beta), is taken as mu_low * sum_i c_i mu_i/mu_low:
    one moment seed at the lowest power, the ratios from
    mu_{i+1}/mu_i = (alpha+i+1)/(alpha+beta+i+2) in integers, and one
    Fraction or PiRational product at the end. Otherwise each moment is
    evaluated and summed in turn.
    """
    if is_exact(alpha) and is_exact(beta) and _rational(p) and _rational(q):
        return _exact_inner_product(p, q, Fraction(alpha), Fraction(beta))
    prod = p * q
    if prod.is_zero:
        return Fraction(0) if (is_exact(alpha) and is_exact(beta) and prod.mode == "exact") else 0.0
    low = prod.lowest_power
    _check_lowest(low, (Fraction(alpha) if is_exact(alpha) else float(alpha)) + low, alpha)
    return _moment_sum(prod.coeffs, low, alpha, beta)


def _rational(p: DensePoly) -> bool:
    return all(isinstance(c, Rational) for c in p.coeffs)


def _check_lowest(low: int, alpha_low, alpha):
    if not alpha_low > -1:
        raise DivergenceError(
            f"inner product diverges: lowest monomial x^{low} against alpha = {alpha}")


def _moment_sum(coeffs, low: int, alpha, beta):
    """sum_i coeffs[i] * beta_moment(alpha+i, beta), one moment per term."""
    total = None
    for i in range(low, len(coeffs)):
        c = coeffs[i]
        if not c:
            continue
        term = c * beta_moment(alpha + i, beta)
        total = term if total is None else total + term
    return simplify_scalar(total)


def _exact_inner_product(p: DensePoly, q: DensePoly, alpha: Fraction, beta: Fraction):
    if p.is_zero or q.is_zero:
        return Fraction(0)
    (pn, pd), (qn, qd) = over_common_denominator(p.coeffs), over_common_denominator(q.coeffs)
    prod = [0] * (len(pn) + len(qn) - 1)
    for i, u in enumerate(pn):
        if u:
            for j, v in enumerate(qn):
                prod[i + j] += u * v
    den = pd * qd
    low = next(i for i, c in enumerate(prod) if c)
    _check_lowest(low, alpha + low, alpha)
    seed = beta_moment(alpha + low, beta)
    if not is_exact(seed):
        # no exact moment (denominators other than 1 and 2): keep the float
        # sum term by term, as for float parameters
        return _moment_sum([Fraction(c, den) for c in prod], low, alpha, beta)
    # Horner from the top: value_i = c_i + value_{i+1} mu_{i+1}/mu_i, where
    # mu_{i+1}/mu_i = (d alpha + d (i+1)) / (d alpha + d beta + d (i+2))
    (big_a, big_b), d = over_common_denominator((alpha, beta))
    big_ab = big_a + big_b
    top = len(prod) - 1
    num, scale = prod[top], 1
    for i in range(top - 1, low - 1, -1):
        ratio_num, ratio_den = big_a + d * (i + 1), big_ab + d * (i + 2)
        num, scale = prod[i] * ratio_den * scale + ratio_num * num, ratio_den * scale
    return simplify_scalar(seed * Fraction(num, scale * den))


def _jacobi_recurrence(m: int, a: float, b: float):
    """Recurrence coefficients (diagonal, squared off-diagonal) of the monic
    classical Jacobi family for weight (1-y)^a (1+y)^b on [-1,1]."""
    diag = np.zeros(m)
    offsq = np.zeros(max(m - 1, 0))
    apb = a + b
    diag[0] = (b - a) / (apb + 2)
    if m > 1:
        offsq[0] = 4 * (a + 1) * (b + 1) / ((apb + 2) ** 2 * (apb + 3))
    for i in range(1, m):
        s = 2 * i + apb
        diag[i] = (b * b - a * a) / (s * (s + 2))
        if i < m - 1:
            t = 2 * (i + 1) + apb
            offsq[i] = 4 * (i + 1) * (i + 1 + a) * (i + 1 + b) * (i + 1 + apb) / \
                ((t * t - 1) * t * t)
    return diag, offsq


def gauss_jacobi_rule(m: int, a, b) -> QuadRule:
    """m-node Gauss rule on [0,1] for the weight x**a (1-x)**b, exact for
    polynomial degree <= 2m-1. Built by the Golub--Welsch eigen-decomposition
    of the symmetric tridiagonal recurrence matrix, then mapped from [-1,1].
    """
    if m < 1:
        raise ValueError("need at least one node")
    af, bf = float(a), float(b)
    if not (af > -1 and bf > -1):
        raise DivergenceError("Gauss-Jacobi weight needs a > -1 and b > -1")
    diag, offsq = _jacobi_recurrence(m, af, bf)
    try:
        vals, vecs = eigh_tridiagonal(diag, np.sqrt(offsq))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RootFindingError(f"tridiagonal eigen-solve failed: {exc}") from exc
    mu0 = float(beta_moment(a, b))
    order = np.argsort(vals)
    y = vals[order]
    w = mu0 * vecs[0, order] ** 2
    # y in [-1,1] with weight (1-y)^a (1+y)^b maps to x = (1-y)/2 on [0,1]
    x = (1 - y[::-1]) / 2
    w = w[::-1]
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
