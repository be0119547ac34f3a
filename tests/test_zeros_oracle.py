"""Zeros and Gauss-type rules against an exact-arithmetic oracle, to n = 60.

The k = 0 associated function of the exponential system (alpha, beta) is,
in x = exp(-t), the shifted Jacobi polynomial P_n^(alpha,beta)(1-2x). The
oracle builds it from the classical sum

    P_n^(a,b)(y) = sum_s C(n+a, n-s) C(n+b, s) ((y-1)/2)^s ((y+1)/2)^(n-s),

which at y = 1-2x reads sum_s C(n+a, n-s) C(n+b, s) (-x)^s (1-x)^(n-s)
(reference_poly.jacobi_expansion), on integers over one denominator (float
parameters enter as their exact binary values). Each zero is bracketed by a
sign change on a grid that clusters at both ends, exactly n sign changes are
required (so every bracket holds one zero), and each bracket is bisected in
exact arithmetic. The oracle uses the standard library only; the closed-form
weight check takes its two (0,0) family members from `ajp_coefficients`,
whose exact values tests/test_exact_kernel.py checks against independent
expansions.
"""

import math
from fractions import Fraction

import pytest

from altpoly.errors import DivergenceError
from altpoly.exppoly import e_zeros, legendre_type_quadrature, semi_axis_rule
from altpoly.polycore import PolyParams, ajp_coefficients
from reference_poly import jacobi_expansion

F = Fraction


def _shifted_jacobi_ints(a: Fraction, b: Fraction, n: int) -> list[int]:
    """Integers c_0..c_n proportional (positive factor) to the x^j
    coefficients of P_n^(a,b)(1-2x)."""
    coeffs = jacobi_expansion(n, a, b)
    den = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs]


def _sign_at(ints: list[int], x: Fraction) -> int:
    """Sign of sum_j c_j x^j at x = p/q, from sum_j c_j p^j q^(n-j)."""
    p, q = x.numerator, x.denominator
    acc, qpow = ints[-1], 1
    for c in reversed(ints[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
    return (acc > 0) - (acc < 0)


def _grid(n: int) -> list[Fraction]:
    """Points of (0,1): sin^2 of a uniform angle grid (spacing ~ 1/n^2 at the
    ends, where the zeros cluster) plus 2^-j and 1 - 2^-j for zeros that sit
    closer still to an end (exponents near -1)."""
    size = 16 * n
    pts = {F(math.sin(math.pi * j / (2 * size)) ** 2) for j in range(1, size)}
    pts |= {F(1, 2 ** j) for j in range(1, 80)} | {1 - F(1, 2 ** j) for j in range(1, 80)}
    return sorted(p for p in pts if 0 < p < 1)


def oracle_zeros(alpha, beta, n: int, rel: Fraction = F(1, 2 ** 58)) -> list[Fraction]:
    """The n zeros of P_n^(alpha,beta)(1-2x) in (0,1), ascending, each to
    relative width rel."""
    ints = _shifted_jacobi_ints(F(alpha), F(beta), n)
    grid = [F(0)] + _grid(n) + [F(1)]
    signs = [_sign_at(ints, x) for x in grid]
    assert 0 not in (signs[0], signs[-1])
    # a grid point that is an exact zero is its own bracket
    brackets, last = [], 0
    for i in range(1, len(grid)):
        if signs[i] == 0:
            brackets.append((grid[i], grid[i]))
            last = None
        else:
            if last is not None and signs[i] != signs[last]:
                brackets.append((grid[last], grid[i]))
            last = i
    assert len(brackets) == n, f"{len(brackets)} sign changes for degree {n}"
    zeros = []
    for lo, hi in brackets:
        s_lo = _sign_at(ints, lo)
        while hi - lo > rel * lo:
            mid = (lo + hi) / 2
            if _sign_at(ints, mid) == s_lo:
                lo = mid
            else:
                hi = mid
        zeros.append((lo + hi) / 2)
    return zeros


def _node_errors(alpha, beta, n: int):
    """Absolute and relative errors of the e_zeros nodes against the oracle;
    also checks the structure of the returned ZeroSet."""
    zs = e_zeros(alpha, beta, n)
    assert list(zs.lambdas) == sorted(zs.lambdas)
    for lam, x in zip(zs.lambdas, zs.source_x):
        assert lam == -math.log(x)
    assert max(zs.residuals) < 1e-13
    want = oracle_zeros(alpha, beta, n)
    errs = [abs(F(x) - w) for x, w in zip(sorted(zs.source_x), want)]
    return max(errs), max(e / w for e, w in zip(errs, want))


@pytest.mark.parametrize("n", [8, 30, 60])
@pytest.mark.parametrize("alpha,beta", [(1, 0), (F(5, 2), F(3, 2)), (1.234, 2.5)])
def test_e_zeros_match_exact_oracle(alpha, beta, n):
    _, rel = _node_errors(alpha, beta, n)
    assert rel < 1e-13, float(rel)


@pytest.mark.parametrize("n", [8, 30, 60])
def test_e_zeros_near_the_alpha_edge(n):
    # alpha -> -1 pulls the smallest zero towards 0 (about 2.8e-7 at n = 60).
    # An eigenvalue of the recurrence matrix is accurate to a few ulps of its
    # norm, about 1, so the nodes carry an absolute error and this pair misses
    # the 1e-13 relative bound of the other pairs: the smallest node's
    # relative error (= the absolute error of its lambda) is 1.2e-12 at n = 8
    # and 1.2e-9 at n = 60. Only the absolute error is held to 1e-15 here.
    absolute, _ = _node_errors(-0.999, 0, n)
    assert absolute < 1e-15, float(absolute)


@pytest.mark.parametrize("n", [30, 60])
def test_semi_axis_rule_exact_on_exponentials(n):
    rule = semi_axis_rule(n)
    assert len(rule.nodes) == n
    for m in range(2, 2 * n + 2):
        got = math.fsum(v * math.exp(-m * t) for t, v in zip(rule.nodes, rule.weights))
        assert abs(got * m - 1) < 1e-13, (n, m, got)


@pytest.mark.parametrize("n", range(1, 9))
def test_legendre_type_weights_match_closed_form(n):
    # the closed form w_s = -2/(n(n+2)) / (x_s^2 P_n1(x_s) P'_n0(x_s)) of the
    # (0,0) family, evaluated exactly at the oracle's zeros
    rule = legendre_type_quadrature(n)
    want = oracle_zeros(1, 0, n)
    assert max(abs(F(x) - z) / z for x, z in zip(rule.nodes, want)) < 1e-14
    p1 = ajp_coefficients(PolyParams(0, 0, n, 1))
    dp0 = ajp_coefficients(PolyParams(0, 0, n, 0)).derivative()
    for z, w in zip(want, rule.weights):
        closed = F(-2, n * (n + 2)) / (z * z * p1(z) * dp0(z))
        assert abs(F(w) - closed) < 1e-14 * closed, (w, float(closed))


@pytest.mark.parametrize("alpha,beta", [(-1, 0), (0, -1), (F(-3, 2), 0), (0.5, -1.0)])
def test_e_zeros_refuse_outside_range(alpha, beta):
    with pytest.raises(DivergenceError) as info:
        e_zeros(alpha, beta, 4)
    # the shared range check of gauss_jacobi_rule names (alpha, beta, n) as (a, b, m)
    message = str(info.value)
    assert f"a = {alpha}" in message and f"b = {beta}" in message and "m = 4" in message

