"""The exact coefficient kernel against routes that do not use it.

Every exact member, shifted Jacobi polynomial, direct-family polynomial and
reciprocity rebuild comes from one hypergeometric kernel, so an identity
between two of them (such as member == x^k * shifted Jacobi) compares the
kernel with itself. The oracles here are two independent expansions:

* the binomial route: sum_j (-1)^j C(m, j) (a+m)_{m-j} (b+m)_j x^j (1-x)^{m-j} / m!,
  expanded term by term;
* the classical route: the Jacobi polynomial in y as the terminating sum
  C(m+a, m-s) C(m+b, s) ((y-1)/2)^s ((y+1)/2)^(m-s), composed with y = 1-2x.

Both are polynomial identities in a and b, so they hold for the negative
parameters of the reciprocity route too. Exact weighted inner products are
checked against the term-by-term Beta-moment sum.
"""

import math
from fractions import Fraction as F

import pytest

from altpoly.errors import CoefficientOverflowError
from altpoly.exact import falling_factorial
from altpoly.poly import DensePoly
from altpoly.polycore import (
    PolyParams,
    ajp_coefficients,
    ajp_recurrence,
    direct_coefficients,
    reciprocity_coefficients,
    shifted_jacobi_coefficients,
)
from altpoly.quad import beta_moment, weighted_inner_product

INTEGER = (F(0), F(2))
HALF_ODD = (F(-1, 2), F(3, 2))
THIRDS = (F(1, 3), F(-2, 3))
PARAM_PAIRS = [(a, b) for group in (INTEGER, HALF_ODD, THIRDS) for a in group for b in group]
PARAM_PAIRS += [(F(-5, 2), F(1, 2)), (F(-7), F(0)), (F(-4, 3), F(2, 3))]   # alpha below -1
SIZES = (0, 1, 2, 7, 18, 40)


def binomial_route(m, a, b, lift=0):
    """x^lift P_m^{(a,b)}(1-2x) by expanding each (1-x)^(m-j)."""
    out = [F(0)] * (lift + m + 1)
    for j in range(m + 1):
        pref = F((-1) ** j * math.comb(m, j)) * falling_factorial(a + m, m - j) \
            * falling_factorial(b + m, j) / math.factorial(m)
        for i in range(m - j + 1):
            out[lift + j + i] += pref * ((-1) ** i * math.comb(m - j, i))
    return DensePoly(out)


def classical_route(m, a, b, lift=0):
    """x^lift P_m^{(a,b)}(1-2x) from the classical sum in y, composed with 1-2x."""
    half = F(1, 2)
    ym, yp = DensePoly((-half, half)), DensePoly((half, half))
    jac = DensePoly.zero()
    for s in range(m + 1):
        c = falling_factorial(a + m, m - s) / math.factorial(m - s) \
            * falling_factorial(b + m, s) / math.factorial(s)
        term = DensePoly.one()
        for _ in range(s):
            term = term * ym
        for _ in range(m - s):
            term = term * yp
        jac = jac + term.scale(c)
    out, power, sub = DensePoly.zero(), DensePoly.one(), DensePoly((1, -2))
    for c in jac.coeffs:
        out = out + power.scale(c)
        power = power * sub
    return out.shift_up(lift)


def all_fractions(poly):
    return all(type(c) is F for c in poly.coeffs)


def edge_ks(n):
    return sorted({0, min(1, n), max(n - 1, 0), n})


@pytest.mark.parametrize("a,b", PARAM_PAIRS)
def test_members_against_both_routes(a, b):
    for n in SIZES:
        for k in edge_ks(n):
            got = ajp_coefficients(PolyParams(a, b, n, k))
            want = binomial_route(n - k, a + 2 * k + 1, b, k)
            assert got == want, (a, b, n, k)
            assert all_fractions(got)
            if n <= 18:
                assert got == classical_route(n - k, a + 2 * k + 1, b, k), (a, b, n, k)
            rebuilt = reciprocity_coefficients(a, b, n, k)
            assert rebuilt == want, (a, b, n, k)
            assert all_fractions(rebuilt)


@pytest.mark.parametrize("a,b", PARAM_PAIRS + [(F(-9, 2), F(-7, 3)), (F(-31), F(-12))])
def test_shifted_jacobi_against_both_routes(a, b):
    for m in (0, 1, 3, 11, 40):
        got = shifted_jacobi_coefficients(m, a, b)
        assert all_fractions(got)
        assert got == binomial_route(m, a, b), (a, b, m)
        if m <= 11:
            assert got == classical_route(m, a, b), (a, b, m)


def test_reciprocity_parameters_reach_negative_kernel():
    # reciprocity calls the kernel at (-alpha-beta-2n-2, beta): check that
    # parameter directly, at n = 40, against the binomial expansion
    a, b, n, k = F(3, 2), F(1, 3), 40, 3
    assert shifted_jacobi_coefficients(n - k, -a - b - 2 * n - 2, b) == \
        binomial_route(n - k, -a - b - 2 * n - 2, b)


@pytest.mark.parametrize("a,b", [(F(0), F(0)), (F(3, 2), F(-1, 2)), (F(1, 3), F(2))])
def test_direct_family_against_both_routes(a, b):
    for n in (0, 1, 6, 20):
        for k in (n, n + 1, n + 20):
            got = direct_coefficients(a, b, n, k)
            assert all_fractions(got)
            assert got == binomial_route(k - n, a + 2 * n, b, n), (a, b, n, k)
            if k - n <= 1:
                assert got == classical_route(k - n, a + 2 * n, b, n), (a, b, n, k)


@pytest.mark.parametrize("a,b", [(F(2), F(1)), (F(-1, 2), F(3, 2)), (F(1, 3), F(0))])
def test_recurrence_n60_against_binomial_route(a, b):
    n = 60
    seq = ajp_recurrence(a, b, n)
    assert len(seq) == n + 1
    for k, got in zip(range(n, -1, -1), seq):
        assert got == binomial_route(n - k, a + 2 * k + 1, b, k), (a, b, k)
        assert all_fractions(got)


def moment_sum(p, q, alpha, beta):
    """The inner product summed one Beta moment per monomial."""
    prod = p * q
    return sum((c * beta_moment(alpha + i, beta) for i, c in enumerate(prod.coeffs) if c),
               F(0))


@pytest.mark.parametrize("alpha,beta", [(F(0), F(0)), (F(2), F(1, 2)), (F(1, 2), F(3)),
                                        (F(-1, 2), F(-1, 2)), (F(5, 2), F(1, 2))])
def test_inner_product_against_moment_sum(alpha, beta):
    polys = [ajp_coefficients(PolyParams(F(1, 3), F(2, 3), 9, 4)),
             DensePoly((F(0), F(-7, 5), F(0), F(11, 2))),
             DensePoly.monomial(3, 2),
             direct_coefficients(F(1, 2), F(0), 2, 13)]
    for p in polys:
        for q in polys:
            got = weighted_inner_product(p, q, alpha, beta)
            assert got == moment_sum(p, q, alpha, beta), (alpha, beta, p, q)


@pytest.mark.parametrize("n", [150, 200])
def test_float_member_overflow_is_refused(n):
    # at n = 150 the expansion reaches inf, at n = 200 (n-k)! has no float
    with pytest.raises(CoefficientOverflowError, match=f"n={n}.*alpha = 1.5, beta = 0.7"):
        ajp_coefficients(PolyParams(1.5, 0.7, n, 0))
    assert isinstance(CoefficientOverflowError(n, 0, 1.5, 0.7), OverflowError)
