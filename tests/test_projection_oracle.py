"""Float member evaluation and projection on the exponential system against
exact rational arithmetic.

member_values runs the classical Jacobi three-term recurrence in floats; the
oracle is the exact member polynomial (integer kernel, Fraction coefficients)
evaluated at the same dyadic points, which floats represent exactly. For
exp(-r t) with 1 <= r <= n the target x**r lies in the span, so the exact
projection coefficients are the exact inner products over the exact norms and
the true projection error is 0. At a non-dyadic float pair, whose norms have
no exact form, the oracle is the exact expansion of x**r in the members at
the pair's binary values.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from altpoly import exppoly
from altpoly.exact import PiRational
from altpoly.exppoly import ExpPolySystem, e_norm, member_values, project
from altpoly.poly import DensePoly
from altpoly.quad import weighted_inner_product

POINTS = (F(1, 1024), F(1, 16), F(3, 16), F(1, 2), F(21, 32), F(15, 16), F(1023, 1024))


@pytest.mark.parametrize("alpha", [F(-9, 10), F(1, 2), F(5, 2)])
@pytest.mark.parametrize("beta", [F(0), F(3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 25, 40])
def test_member_values_match_exact_members(alpha, beta, n):
    values = member_values(alpha, beta, n, [float(x) for x in POINTS])
    assert values.shape == (n, len(POINTS))
    system = ExpPolySystem(alpha, beta, n)
    for k in sorted({1, n}):
        member = system.member_poly(k)
        for x, got in zip(POINTS, values[k - 1]):
            want = member(x)
            assert want != 0
            assert abs(got - want) <= 1e-12 * abs(want), (k, x)


def per_step_member_values(alpha, beta, n, xs):
    """member_values with every step factor formed inside its degree step,
    from the slice of rows that step raises."""
    x = np.asarray(xs, dtype=float)
    b = float(beta)
    k = np.arange(1, n + 1)[:, None]
    a = float(alpha) + 2 * k
    out = np.empty((n, x.size))
    out[n - 1] = 1.0
    prev = np.ones((n, x.size))
    if n > 1:
        cur = (a[:n - 1] + 1) - (a[:n - 1] + b + 2) * x
        out[n - 2] = cur[n - 2]
    for d in range(2, n):
        rows = n - d
        ar = a[:rows]
        s = 2 * d - 2 + ar + b
        lead = 2 * d * (d + ar + b) * s
        lin = (s + 1) * (s + 2) * s
        const = lin + (s + 1) * (ar * ar - b * b)
        back = 2 * (d - 1 + ar) * (d - 1 + b) * (s + 2)
        # the step factor lin (1 - 2x) + const expanded in x
        prev, cur = cur[:rows], ((-2 * lin * x + const) * cur[:rows]
                                 - back * prev[:rows]) / lead
        out[rows - 1] = cur[rows - 1]
    # x^k as the kernel forms it: the running product x, x x, (x x) x, ...
    power = np.ones(x.size)
    for r in range(n):
        power = power * x
        out[r] *= power
    return out


EDGE_GRID = (0.0, 1.0, 1e-300, 5e-324, 0.5, 1 - 2 ** -53, 1e-8, 0.25, 0.9)


@pytest.mark.parametrize("alpha,beta", [(F(1, 2), F(3, 2)), (F(-9, 10), F(0)), (F(305, 4), F(0)),
                                        (0, 0), (-0.5, -0.5), (1.5, 0.7), (-0.999, 0.0),
                                        (23.0, 11.5)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 30, 100])
def test_tabulated_member_values_bit_identical_to_per_step(alpha, beta, n):
    grid = EDGE_GRID + tuple(np.linspace(0.0, 1.0, 41))
    got = member_values(alpha, beta, n, grid)
    want = per_step_member_values(alpha, beta, n, grid)
    assert got.shape == want.shape == (n, len(grid))
    assert np.array_equal(got, want)


def _rational_ratio(num, den) -> F:
    """num / den for two exact values that are both rational or both
    rational multiples of pi."""
    def split(v):
        if isinstance(v, PiRational):
            assert v.rat == 0
            return v.pi_coeff, True
        return F(v), False

    (p, p_pi), (q, q_pi) = split(num), split(den)
    assert p == 0 or p_pi == q_pi
    return p / q


def exact_projection(alpha, beta, n: int, r: int) -> list:
    """Exact coefficients of x**r = exp(-r t) in the system, k = 1..n."""
    system = ExpPolySystem(alpha, beta, n)
    target = DensePoly((F(0),) * r + (F(1),))
    return [_rational_ratio(weighted_inner_product(target, system.member_poly(k),
                                                   alpha - 1, beta),
                            e_norm(system, k))
            for k in range(1, n + 1)]


def exact_expansion(alpha, beta, n: int, r: int) -> list:
    """Exact coefficients of x**r in the system, k = 1..n, by forward
    substitution: member k spans x**k..x**n, so the x**j coefficient of
    sum_k c_k member_k involves c_1..c_j only. No norm and no Gamma ratio
    enters, so the oracle is exact at any rational (alpha, beta)."""
    system = ExpPolySystem(alpha, beta, n)
    rows = [system.member_poly(k).coeffs for k in range(1, n + 1)]
    c = []
    for j in range(1, n + 1):
        rest = sum(c[k - 1] * rows[k - 1][j] for k in range(1, j))
        c.append(((1 if j == r else 0) - rest) / rows[j - 1][j])
    return c


def test_the_two_exact_oracles_agree():
    for r in (1, 4, 7):
        assert exact_expansion(F(3, 2), F(1, 2), 7, r) == exact_projection(F(3, 2), F(1, 2), 7, r)


def assert_in_span_projections_exact(alpha, beta, n, want):
    for r in sorted({1, n // 2, n}):
        result = project(lambda t: math.exp(-r * t), ExpPolySystem(alpha, beta, n))
        assert result.error < 1e-12, r
        assert len(result.coeffs) == n
        assert max(abs(c - float(w)) for c, w in zip(result.coeffs, want(r))) < 1e-12, r


@pytest.mark.parametrize("alpha,beta", [(F(1, 2), F(3, 2)), (F(3, 2), F(1, 2)),
                                        (F(5, 2), F(0)), (F(-1, 2), F(0))])
@pytest.mark.parametrize("n", [11, 20, 30, 40])
def test_project_in_span_target_matches_exact_projection(alpha, beta, n):
    assert_in_span_projections_exact(alpha, beta, n,
                                      lambda r: exact_projection(alpha, beta, n, r))


@pytest.mark.parametrize("n", [11, 20, 30, 40])
def test_project_at_non_dyadic_floats_matches_exact_projection_at_binary_values(n):
    alpha, beta = 1.234, 0.567
    assert_in_span_projections_exact(alpha, beta, n,
                                     lambda r: exact_expansion(F(alpha), F(beta), n, r))


def counted_rule_and_member_calls(monkeypatch):
    """The node counts of the gauss_jacobi_rule and member_values calls
    that project makes."""
    calls = {"rules": [], "members": []}
    rule, members = exppoly.gauss_jacobi_rule, exppoly.member_values

    def counted_rule(m, a, b):
        calls["rules"].append(m)
        return rule(m, a, b)

    def counted_members(a, b, n, xs):
        calls["members"].append(len(xs))
        return members(a, b, n, xs)

    monkeypatch.setattr(exppoly, "gauss_jacobi_rule", counted_rule)
    monkeypatch.setattr(exppoly, "member_values", counted_members)
    return calls


@pytest.mark.parametrize("n", [1, 5, 30])
def test_default_projection_solves_one_rule_and_makes_one_member_pass(monkeypatch, n):
    calls = counted_rule_and_member_calls(monkeypatch)
    project(lambda t: math.exp(-t), ExpPolySystem(1.234, 0.567, n))
    m = max(4 * n + 16, 48)
    assert calls == {"rules": [m], "members": [m]}

