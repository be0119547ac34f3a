"""The exact coefficient kernel against routes that do not use it.

Every exact member, shifted Jacobi polynomial, direct-family polynomial and
reciprocity rebuild comes from one hypergeometric kernel, so an identity
between two of them (such as member == x^k * shifted Jacobi) compares the
kernel with itself. The oracles here are two independent expansions:

* the binomial route: sum_s C(m+a, m-s) C(m+b, s) (-x)^s (1-x)^(m-s), each
  (1-x)^(m-s) expanded by the binomial theorem (reference_poly.jacobi_expansion);
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
from altpoly.exact import falling_factorial, over_common_denominator
from altpoly.poly import DensePoly
from altpoly.polycore import (
    PolyParams,
    _jacobi_kernel,
    ajp_coefficients,
    ajp_recurrence,
    direct_coefficients,
    reciprocity_coefficients,
    shifted_jacobi_coefficients,
)
from altpoly.quad import beta_moment, weighted_inner_product
from reference_poly import jacobi_expansion

INTEGER = (F(0), F(2))
HALF_ODD = (F(-1, 2), F(3, 2))
THIRDS = (F(1, 3), F(-2, 3))
PARAM_PAIRS = [(a, b) for group in (INTEGER, HALF_ODD, THIRDS) for a in group for b in group]
PARAM_PAIRS += [(F(-5, 2), F(1, 2)), (F(-7), F(0)), (F(-4, 3), F(2, 3))]   # alpha below -1
SIZES = (0, 1, 2, 7, 18, 40)


def binomial_route(m, a, b, lift=0):
    """x^lift P_m^{(a,b)}(1-2x) from the binomial expansion."""
    return DensePoly([F(0)] * lift + jacobi_expansion(m, a, b))


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


def product_kernel(m, a, b):
    """The kernel's (nums, D) with each coefficient built as the product
    C(m, j) * prod_{t>j} (d t + A) * prod_{i<j} (d (m+1+i) + A + B)."""
    (big_a, big_b), d = over_common_denominator((a, b))
    rising = [1]
    for i in range(m):
        rising.append(rising[-1] * (d * (m + 1 + i) + big_a + big_b))
    nums = [0] * (m + 1)
    falling_part, binom = 1, 1          # prod_{t=j+1..m} (d t + A) and C(m, j), at j = m
    for j in range(m, -1, -1):
        c = binom * falling_part * rising[j]
        nums[j] = -c if j & 1 else c
        falling_part *= d * j + big_a
        binom = binom * j // (m - j + 1)
    return nums, d ** m * math.factorial(m)


def kernel_cases(m):
    """(a, b) pairs for the ratio walk at degree m: halves, thirds, binary
    floats, and every placement of the zero windows."""
    yield from [(F(1, 2), F(3, 2)), (F(-7, 2), F(1, 2)), (F(1, 3), F(-2, 3)),
                (F(-5, 3), F(7, 3)), (F(0), F(0)), (F(1), F(0)),
                (F(1.5), F(0.7)), (F(0.1), F(2.3)), (F(-0.999), F(1e-3))]
    # a negative whole a = -t: d t + A = 0 zeroes the powers below t, for
    # t below, at and above m
    for t in sorted({1, max(m // 2, 1), max(m - 1, 1), m, m + 1, m + 5}):
        yield F(-t), F(1, 2)
        yield F(-t), F(3)
    # a negative whole a + b = -(m+1+i) zeroes the powers above i, inside
    # m+1..2m and just outside it
    for s in sorted({m, m + 1, (3 * m) // 2 + 1, 2 * m, 2 * m + 1}):
        yield F(1, 3), -s - F(1, 3)
        yield F(2), F(-s - 2)
        yield F(-max(m // 3, 1)), F(-s + max(m // 3, 1))   # both windows at once
    # the reciprocity route's (-alpha-beta-2n-2, beta), for degree m = n - k
    for alpha, beta, k in ((F(3, 2), F(1, 3), 0), (F(0), F(2), 3), (F(-1, 2), F(1, 2), 1)):
        n = m + k
        yield -alpha - beta - 2 * n - 2, beta


@pytest.mark.parametrize("m", list(range(41)) + [60, 100, 200])
def test_ratio_walk_kernel_matches_product_form(m):
    for a, b in kernel_cases(m):
        assert _jacobi_kernel(m, a, b) == product_kernel(m, a, b), (m, a, b)


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


@pytest.mark.parametrize("alpha,beta,sizes", [(1.5, 0.7, (8, 20, 50, 100, 150, 200)),
                                               (0.1, 2.3, (8, 20, 50, 100))])
def test_float_member_is_the_exact_member_rounded_once(alpha, beta, sizes):
    # the exact member at the binary values of alpha and beta (alpha + 1 is
    # not a float at 0.1), each coefficient rounded once; at n = 200 the
    # largest one is 4.5e151
    for n in sizes:
        want = binomial_route(n, F(alpha) + 1, F(beta))
        got = ajp_coefficients(PolyParams(alpha, beta, n, 0))
        assert got.coeffs == tuple(float(c) for c in want.coeffs), n


@pytest.mark.parametrize("n", [404, 405, 450, 500])
def test_float_member_overflow_is_refused(n):
    # the exact coefficients at (1.5, 0.7) leave the double range from
    # n = 405; at n = 404 the largest one is 3.3e307
    if n <= 404:
        assert max(abs(c) for c in ajp_coefficients(PolyParams(1.5, 0.7, n, 0)).coeffs) < 1e308
        return
    with pytest.raises(CoefficientOverflowError, match=f"n={n}.*alpha = 1.5, beta = 0.7"):
        ajp_coefficients(PolyParams(1.5, 0.7, n, 0))
    assert isinstance(CoefficientOverflowError(n, 0, 1.5, 0.7), OverflowError)


@pytest.mark.parametrize("build,member", [
    (lambda m: shifted_jacobi_coefficients(m, 2.5, 0.7), lambda m: (m, 0, 2.5)),
    (lambda m: direct_coefficients(0.5, 0.7, 1, m + 1), lambda m: (1, m + 1, 0.5)),
    (lambda m: reciprocity_coefficients(1.5, 0.7, m, 0), lambda m: (m, 0, 1.5)),
], ids=["shifted-jacobi", "direct", "reciprocity"])
def test_float_kernel_overflow_names_the_member(build, member):
    # each is P_m^(2.5, 0.7)(1-2x) times a power of x (the reciprocity route
    # rebuilds it from the exactly formed parameter): m = 404 fits, and
    # m = 405 leaves the double range
    assert max(abs(c) for c in build(404).coeffs) < 1e308
    n, k, alpha = member(405)
    with pytest.raises(CoefficientOverflowError,
                       match=f"n={n}, k={k}.*alpha = {alpha}, beta = 0.7"):
        build(405)


FLOAT_PAIRS = [(0.3, 0.7), (1.234, 0.567), (2.5, 0.1), (-0.5, 0.25)]


@pytest.mark.parametrize("alpha,beta", FLOAT_PAIRS)
def test_float_direct_and_reciprocity_are_exact_then_rounded_once(alpha, beta):
    # float parameters are shifted exactly, so the reciprocity rebuild is the
    # float member bit for bit and a direct polynomial is the exact one at
    # the binary parameters, each coefficient rounded once
    for n in range(8):
        for k in range(n + 1):
            got = reciprocity_coefficients(alpha, beta, n, k).coeffs
            want = ajp_coefficients(PolyParams(alpha, beta, n, k)).coeffs
            assert [c.hex() for c in got] == [c.hex() for c in want], (n, k)
            got = direct_coefficients(alpha, beta, k, n).coeffs
            want = direct_coefficients(F(alpha), F(beta), k, n).to_floats().coeffs
            assert [c.hex() for c in got] == [c.hex() for c in want], (k, n)
