import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from altpoly import quad
from altpoly.errors import DivergenceError, RootFindingError
from altpoly.exact import PiRational
from altpoly.marginal import a_coefficients
from altpoly.poly import DensePoly
from altpoly.polycore import PolyParams, ajp_coefficients, ajp_norm_h
from altpoly.quad import (
    QuadRule,
    beta_moment,
    gauss_jacobi_rule,
    golub_welsch,
    integrate_semi_axis,
    jacobi_matrices,
    integrate_unit,
    weighted_inner_product,
)

F = Fraction


def test_beta_moment_trivials():
    assert beta_moment(0, 0) == 1
    assert beta_moment(1, 0) == F(1, 2)
    assert beta_moment(3, 2) == F(1, 60)   # 3! 2! / 6!


def test_beta_moment_half_integers():
    assert beta_moment(F(-1, 2), F(-1, 2)) == PiRational(0, 1)
    assert beta_moment(F(1, 2), F(-1, 2)) == PiRational(0, F(1, 2))
    # mixed whole and half-odd collapses to a rational
    assert beta_moment(F(-1, 2), 0) == 2


def test_beta_moment_symmetry():
    for a in (F(0), F(2), F(1, 2), F(-1, 2)):
        for b in (F(0), F(3), F(-1, 2)):
            assert beta_moment(a, b) == beta_moment(b, a)


def test_beta_moment_float_fallback():
    got = beta_moment(F(1, 3), 0)
    assert isinstance(got, float)
    assert got == pytest.approx(3 / 4)   # integral of x^(1/3) on [0,1]


def test_beta_moment_divergence():
    with pytest.raises(DivergenceError):
        beta_moment(-1, 0)
    with pytest.raises(DivergenceError):
        beta_moment(0, F(-3, 2))


def test_weighted_inner_product_examples():
    p10 = ajp_coefficients(PolyParams(0, 0, 1, 0))
    p11 = ajp_coefficients(PolyParams(0, 0, 1, 1))
    assert weighted_inner_product(p10, p11, 0, 0) == 0
    assert weighted_inner_product(p11, p11, 0, 0) == F(1, 3)
    # marginal-weight example: A members against 1/x
    assert weighted_inner_product(a_coefficients(2, 1), a_coefficients(2, 2), -1, 0) == 0


def _worst_orthogonality(members, alpha, beta, norms):
    """Largest |<P_k, P_l>| / h_k over k < l, and largest relative error of
    <P_k, P_k> against h_k."""
    off = diag = 0.0
    for k, pk in enumerate(members):
        for l in range(k, len(members)):
            ip = weighted_inner_product(pk, members[l], alpha, beta)
            assert isinstance(ip, float), (k, l)
            if k == l:
                diag = max(diag, abs(ip - norms[k]) / norms[k])
            else:
                off = max(off, abs(ip) / norms[k])
    return off, diag


@pytest.mark.parametrize("n", range(4, 25))
def test_orthogonality_at_a_weight_without_exact_moments(n):
    # all-rational inputs whose Beta moments have no exact form: the moment
    # ratios are exact, so the off-diagonal sums vanish exactly; the diagonal
    # is one rounding of the exact sum times the float seed
    a, b = F(1, 3), F(2, 3)
    params = [PolyParams(a, b, n, k) for k in range(n + 1)]
    off, diag = _worst_orthogonality([ajp_coefficients(p) for p in params], a, b,
                                     [ajp_norm_h(p) for p in params])
    assert off == 0.0
    assert diag < 1e-13


@pytest.mark.parametrize("n", range(4, 25))
def test_orthogonality_of_binary_members_under_a_float_weight(n):
    # the exact members at the binary values of (0.3, 0.7), against the float
    # weight: the exponents enter at the same binary values
    members = [ajp_coefficients(PolyParams(F(0.3), F(0.7), n, k)) for k in range(n + 1)]
    norms = [ajp_norm_h(PolyParams(0.3, 0.7, n, k)) for k in range(n + 1)]
    off, diag = _worst_orthogonality(members, 0.3, 0.7, norms)
    assert off == 0.0
    assert diag < 1e-13


def test_float_coefficients_at_half_odd_weights_give_a_float():
    # the exact moment is a rational multiple of pi; a float coefficient
    # makes the result its float
    half = F(1, 2)
    got = weighted_inner_product(DensePoly((1.0,)), DensePoly((1.0,)), half, half)
    assert isinstance(got, float) and got == math.pi / 8
    member = ajp_coefficients(PolyParams(0.5, 0.5, 6, 2))
    got = weighted_inner_product(member, member, half, half)
    assert isinstance(got, float)
    assert got == pytest.approx(float(ajp_norm_h(PolyParams(half, half, 6, 2))), rel=1e-14)


def test_weighted_inner_product_divergence_gate():
    one = DensePoly.one()
    with pytest.raises(DivergenceError):
        weighted_inner_product(one, one, -1, 0)


def test_gauss_jacobi_one_point_legendre():
    rule = gauss_jacobi_rule(1, 0, 0)
    assert rule.nodes == (0.5,)
    assert rule.weights[0] == pytest.approx(1.0)


def test_gauss_jacobi_two_point_legendre():
    rule = gauss_jacobi_rule(2, 0, 0)
    expected = (0.5 - 0.5 / math.sqrt(3), 0.5 + 0.5 / math.sqrt(3))
    assert rule.nodes == pytest.approx(expected)
    assert rule.weights == pytest.approx((0.5, 0.5))


def test_gauss_jacobi_chebyshev_weight():
    rule = gauss_jacobi_rule(1, -0.5, -0.5)
    assert rule.nodes[0] == pytest.approx(0.5)
    assert rule.weights[0] == pytest.approx(math.pi)


def test_gauss_jacobi_weight_sum_is_beta_moment():
    for a, b in ((0, 0), (0.5, -0.5), (1.5, 0.0)):
        for m in (1, 3, 9):
            rule = gauss_jacobi_rule(m, a, b)
            assert sum(rule.weights) == pytest.approx(float(beta_moment(a, b)), rel=1e-13)


def test_gauss_jacobi_monomial_exactness():
    for a in (0, 0.5, -0.5):
        for b in (0, 0.5, -0.5):
            for m in (1, 4, 12, 20):
                rule = gauss_jacobi_rule(m, a, b)
                for j in range(0, 2 * m):
                    got = integrate_unit(lambda x: x ** j, rule)
                    want = float(beta_moment(a + j, b))
                    assert got == pytest.approx(want, rel=1e-12), (a, b, m, j)


def test_integrate_unit_examples():
    rule = gauss_jacobi_rule(2, 0, 0)
    assert integrate_unit(lambda x: 1.0, rule) == pytest.approx(1.0)
    assert integrate_unit(lambda x: x ** 3, rule) == pytest.approx(0.25)
    p10 = ajp_coefficients(PolyParams(0, 0, 1, 0)).to_floats()
    p11 = ajp_coefficients(PolyParams(0, 0, 1, 1)).to_floats()
    assert integrate_unit(lambda x: p10(x) * p11(x), rule) == pytest.approx(0, abs=1e-15)


def test_integrate_semi_axis_examples():
    assert integrate_semi_axis(lambda t: 1.0, 1.0, 0.0) == pytest.approx(1.0)
    # member of the (1,0) exponential system squared: e^{-2t} under e^{-t} weight
    e11 = DensePoly((0, 1))
    assert integrate_semi_axis(e11 * e11, 1, 0) == F(1, 3)
    # A-kind members pull back to the marginal inner product
    prod = a_coefficients(2, 1) * a_coefficients(2, 2)
    assert integrate_semi_axis(prod, 0, 0) == 0


def test_integrate_semi_axis_numeric_matches_exact():
    member = ajp_coefficients(PolyParams(0, 0, 2, 1))
    exact = integrate_semi_axis(member * member, 1, 0)
    numeric = integrate_semi_axis(lambda t: float(member(math.exp(-t))) ** 2, 1.0, 0.0)
    assert numeric == pytest.approx(float(exact), rel=1e-12)


def test_integrate_semi_axis_divergence_probe():
    with pytest.raises(DivergenceError):
        integrate_semi_axis(lambda t: 1.0, 0.0, 0.0)


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadRule((0.5, 0.2), (1.0, 1.0), "unit-interval", ())
    with pytest.raises(ValueError):
        QuadRule((0.0,), (1.0,), "unit-interval", ())
    with pytest.raises(ValueError):
        QuadRule((0.5,), (-1.0,), "unit-interval", ("gauss-jacobi", 0, 0))


def test_rule_serialization_stable():
    rule = gauss_jacobi_rule(2, 0, 0)
    csv1, csv2 = rule.to_csv(), rule.to_csv()
    assert csv1 == csv2
    assert csv1.splitlines()[0] == "node,weight"
    payload = json.loads(rule.to_json())
    assert payload["domain"] == "unit-interval"
    assert payload["nodes"] == sorted(payload["nodes"])


def _jacobi_matrix_loop(m, a, b):
    """Reference: one Jacobi matrix entry by entry in Python floats, the
    single-matrix builder the stacked one replaced."""
    diag, offsq = [0.0] * m, [0.0] * max(m - 1, 0)
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
    off = np.sqrt(offsq)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


STACK_PAIRS = [(F(-1, 2), F(0)), (F(0), F(0)), (F(1, 2), F(3, 2)), (F(3), F(2)),
               (F(161, 3), F(161, 6)), (0.999, -0.9), (22.0, 5.5), (F(7, 3), F(64))]


@pytest.mark.parametrize("m", [1, 2, 3, 8, 20, 50, 100, 136])
def test_stacked_rules_equal_single_rules_bit_for_bit(m):
    a = [float(p) for p, _ in STACK_PAIRS]
    b = [float(q) for _, q in STACK_PAIRS]
    mats = jacobi_matrices(m, a, b)
    x, v0sq = golub_welsch(mats)
    for r, (p, q) in enumerate(STACK_PAIRS):
        assert np.array_equal(mats[r], _jacobi_matrix_loop(m, a[r], b[r]))
        vals, vecs = np.linalg.eigh(_jacobi_matrix_loop(m, a[r], b[r]))
        assert np.array_equal(x[r], (1 - vals[::-1]) / 2)
        assert np.array_equal(v0sq[r], vecs[0, ::-1] ** 2)
        rule = gauss_jacobi_rule(m, p, q)
        assert rule.nodes == tuple(x[r].tolist())
        assert rule.weights == tuple((float(beta_moment(p, q)) * v0sq[r]).tolist())


def test_exponents_too_large_for_floats_are_refused():
    for a, m in ((1e200, 3), (F(10 ** 200), 3), (F(10 ** 400), 1)):
        with pytest.raises(RootFindingError, match=re.escape(f"a = {a}, b = 0, m = {m}")):
            gauss_jacobi_rule(m, a, 0)


def test_float_beta_moment_overflow_is_refused():
    # m = 1: the Jacobi matrix is finite, but the moment's float lgamma
    # fallback overflows; it was a bare OverflowError
    for a, b in ((1e306, 0), (0, 1e306)):
        with pytest.raises(RootFindingError, match=re.escape(f"a = {a}, b = {b}, m = 1")):
            gauss_jacobi_rule(1, a, b)


def test_beta_moment_at_a_huge_whole_exponent():
    # one factor, not the factorial of 10**8
    assert beta_moment(10 ** 8, 0) == F(1, 10 ** 8 + 1)
    assert beta_moment(0, 10 ** 8) == F(1, 10 ** 8 + 1)
    assert beta_moment(10 ** 8, 1) == F(1, (10 ** 8 + 1) * (10 ** 8 + 2))
    assert len(gauss_jacobi_rule(3, 10 ** 8, 0).nodes) == 3


def test_rule_checks_the_weight_before_solving(monkeypatch):
    def no_solve(mats):
        raise AssertionError("eigen-solve reached")

    monkeypatch.setattr(quad, "golub_welsch", no_solve)
    with pytest.raises(ValueError, match="at least one node"):
        gauss_jacobi_rule(0, 0, 0)
    with pytest.raises(DivergenceError, match="a = -1, b = 0, m = 2"):
        gauss_jacobi_rule(2, -1, 0)


def test_nodes_at_the_endpoint_and_underflowing_weights_are_refused():
    # a node that rounds to x = 1 (a = 1e20) or two that coincide, and
    # mu0 = B(637, 637) underflowing to 0: each was a bare ValueError from QuadRule
    for m, a, b, cause in ((3, 1e20, 0, "round to 0 or 1"), (3, 0, 1e20, "round to 0 or 1"),
                           (10, -0.5, 1e16, "coincide"), (30, 636, 636, "weight underflows")):
        with pytest.raises(RootFindingError,
                           match=f"{cause}.*{re.escape(f'a = {a}, b = {b}, m = {m}')}"):
            gauss_jacobi_rule(m, a, b)
