import math
from fractions import Fraction

import pytest

from altpoly import verify
from altpoly.errors import DivergenceError, NonNormalizableError
from altpoly.poly import DensePoly
from altpoly.polycore import (
    PolyParams,
    ajp_coefficients,
    ajp_derivative,
    ajp_eval,
    ajp_norm_h,
    ajp_recurrence,
    ajp_single_integral,
    dd_lowering_residual,
    dd_raising_residual,
    direct_coefficients,
    diff_formula_residual,
    direct_norm_d,
    endpoint_sign,
    ode_residual,
    ode_residual_poly,
    reciprocity_coefficients,
    shifted_jacobi,
    shifted_jacobi_coefficients,
    weight_eval,
)
from altpoly.quad import beta_moment, weighted_inner_product

F = Fraction


def member(a, b, n, k):
    return ajp_coefficients(PolyParams(a, b, n, k))


# ------------------------------------------------------------- construction

def test_params_validation():
    with pytest.raises(ValueError):
        PolyParams(0, 0, 2, 4)      # beyond the sentinel
    with pytest.raises(ValueError):
        PolyParams(0, -1, 2, 0)     # beta at the boundary
    with pytest.raises(ValueError):
        PolyParams(0, 0, -1, 0)
    assert PolyParams(0, 0, 2, 3).is_sentinel
    assert PolyParams(F(-3, 2), F(-1, 2), 3, 1).regime == "marginal"
    assert PolyParams(-4, 0, 3, 1).regime == "formal"


def test_sentinel_is_zero_polynomial():
    assert ajp_coefficients(PolyParams(0, 0, 2, 3)).is_zero


def test_highest_member_is_monomial():
    for n in range(0, 6):
        assert member(3, F(1, 2), n, n).coeffs == DensePoly.monomial(n).coeffs


def test_expansion_frozen_examples():
    assert member(0, 0, 1, 0).coeffs == (2, -3)
    assert member(0, 0, 2, 0).coeffs == (3, -12, 10)
    assert member(0, 0, 2, 1).coeffs == (0, 4, -5)


def test_lowest_coefficient_closed_form():
    for (a, b) in ((F(0), F(0)), (F(1), F(2)), (F(1, 2), F(3, 2))):
        for n in range(0, 7):
            for k in range(0, n + 1):
                c = member(a, b, n, k).coeffs[k]
                # Gamma(alpha+n+k+2)/Gamma(alpha+2k+2) as a falling product
                want = F(1)
                for i in range(n - k):
                    want *= a + n + k + 1 - i
                want /= math.factorial(n - k)
                assert c == want


def test_eval_examples():
    assert ajp_eval(PolyParams(5, F(1, 3), 1, 1), F(1, 2)) == F(1, 2)
    assert ajp_eval(PolyParams(0, 0, 1, 0), F(0)) == 2
    assert ajp_eval(PolyParams(0, 0, 2, 0), F(1)) == 1


def test_float_mode_matches_exact():
    exact = member(F(1, 2), F(3, 2), 5, 2)
    floats = member(0.5, 1.5, 5, 2)
    assert floats.mode == "float"
    for ce, cf in zip(exact.coeffs, floats.coeffs):
        assert cf == pytest.approx(float(ce), rel=1e-13)


# --------------------------------------------------------------- recurrence

def test_recurrence_start_values():
    seq = ajp_recurrence(0, 0, 1)
    assert [p.coeffs for p in seq] == [(0, 1), (2, -3)]


def test_recurrence_steps_n2():
    seq = ajp_recurrence(0, 0, 2)
    assert seq[1].coeffs == (0, 4, -5)
    assert seq[2].coeffs == (3, -12, 10)


def test_recurrence_matches_expansion_wide():
    for a in (F(0), F(2), F(-1, 2)):
        for b in (F(0), F(1)):
            for n in range(1, 16):
                seq = ajp_recurrence(a, b, n)
                for k in range(n, -1, -1):
                    assert seq[n - k] == member(a, b, n, k), (a, b, n, k)


def test_recurrence_float_mode_is_the_rounded_member():
    # (0.5, 0.5) and (1.25, 0.75): each member equal to float ajp_coefficients
    assert not verify.run_rows({"recurrence-vs-expansion-float": 12})["failures"]


def test_recurrence_partial_range():
    seq = ajp_recurrence(1, 1, 5, up_to_k=3)
    assert len(seq) == 3
    assert seq[-1] == member(1, 1, 5, 3)


def test_sentinel_step_reproduces_printed_start_value():
    # applying the downward step at k = n with the zero sentinel as the k+1
    # neighbor must land on the hard-coded second start value
    for a, b in ((F(0), F(0)), (F(1), F(2)), (F(-1), F(0))):
        for n in (1, 2, 5):
            k = n
            pnn = DensePoly.monomial(n)
            combo = (
                pnn.shift_down().scale((a + 2 * k) * (a + 2 * k + 2))
                - pnn.scale((a + 2 * n + 2) * (a + b + 2 * k + 1)
                            + 2 * (n - k) * (n - k + 1))
            ).scale(a + 2 * k + 1)
            denom = (n - k + 1) * (a + n + k + 1) * (a + 2 * k + 2)
            stepped = combo.scale(F(1) / denom)
            assert stepped == ajp_recurrence(a, b, n)[1]


# --------------------------------------------------------------- norms

def test_norm_h_examples_against_beta_oracle():
    # oracle: expand the square into Beta moments
    p10 = member(0, 0, 1, 0)
    assert weighted_inner_product(p10, p10, 0, 0) == 1
    assert ajp_norm_h(PolyParams(0, 0, 1, 0)) == 1
    assert ajp_norm_h(PolyParams(0, 0, 1, 1)) == F(1, 3)
    for n in range(0, 9):
        assert ajp_norm_h(PolyParams(0, 0, n, n)) == F(1, 2 * n + 1)


def test_norm_h_marginal_gate():
    with pytest.raises(NonNormalizableError):
        ajp_norm_h(PolyParams(-1, 0, 3, 0))
    # marginal members with k >= 1 are fine and match the A-kind diagonal
    assert ajp_norm_h(PolyParams(-1, 0, 3, 2)) == F(1, 4)


def test_norm_h_float_parameters():
    got = ajp_norm_h(PolyParams(0.0, 0.0, 1, 1))
    assert got == pytest.approx(1 / 3)


def test_single_integral_examples():
    assert ajp_single_integral(PolyParams(0, 0, 2, 0)) == F(1, 3)
    assert ajp_single_integral(PolyParams(0, 0, 1, 1)) == F(1, 2)
    assert ajp_single_integral(PolyParams(0, 0, 0, 0)) == 1
    # oracle: direct Beta expansion
    p = member(1, 2, 4, 1)
    assert ajp_single_integral(PolyParams(1, 2, 4, 1)) == \
        weighted_inner_product(p, DensePoly.one(), 1, 2)


def test_direct_norm_examples():
    assert direct_norm_d(0, 0, 1, 1) == F(1, 3)
    assert direct_norm_d(0, 0, 0, 1) == F(1, 3)
    assert direct_norm_d(0, 0, 0, 0) == 1
    with pytest.raises(ValueError):
        direct_norm_d(0, 0, 2, 1)


def test_direct_norm_removable_case():
    # alpha + beta + 2k + 1 = 0 happens only at k = n = 0, where the closed
    # form is 0 * inf; the member is the constant 1, whose norm is the moment
    half = F(-1, 2)
    one = direct_coefficients(half, half, 0, 0)
    assert one.coeffs == (1,)
    got = direct_norm_d(half, half, 0, 0)
    assert got == beta_moment(half, half) == weighted_inner_product(one, one, half, half)
    assert str(got) == "pi"
    assert direct_norm_d(-0.5, -0.5, 0, 0) == beta_moment(-0.5, -0.5)
    assert direct_norm_d(-0.5, -0.5, 0, 0) == pytest.approx(math.pi, rel=1e-15)
    assert direct_norm_d(F(-1, 3), F(-2, 3), 0, 0) == beta_moment(F(-1, 3), F(-2, 3))


# --------------------------------------------------------- shifted Jacobi

def test_shifted_jacobi_values():
    assert shifted_jacobi(0, 7, -3, F(1, 4)) == 1
    # degree-1 member with (1,0) parameters is 2-3x
    assert shifted_jacobi_coefficients(1, 1, 0).coeffs == (2, -3)
    for x in (F(0), F(1, 3), F(1)):
        assert shifted_jacobi(1, 1, 0, x) == 2 - 3 * x


def test_negative_parameter_reciprocity_route():
    # reciprocity oracle for n=1, k=0: x * J_1^{(-4,0)}(1-2/x) = 2-3x
    assert reciprocity_coefficients(0, 0, 1, 0).coeffs == (2, -3)


def test_direct_family_gram_schmidt_oracle():
    # independent oracle: exact Gram-Schmidt over monomials x^n, x^(n+1), ...
    for a, b in ((F(0), F(0)), (F(1), F(0)), (F(2), F(1))):
        for n in range(0, 3):
            basis = []
            for k in range(n, n + 3):
                vec = DensePoly.monomial(k)
                for q in basis:
                    proj = weighted_inner_product(vec, q, a, b) / \
                        weighted_inner_product(q, q, a, b)
                    vec = vec - q.scale(proj)
                basis.append(vec)
                # normalize: squared norm d_nk, sign (-1)^(k-n) at x=1
                norm2 = weighted_inner_product(vec, vec, a, b)
                target = direct_norm_d(a, b, n, k)
                scaled = vec.scale(_exact_sqrt(target / norm2))
                if (scaled(F(1)) > 0) != ((-1) ** (k - n) > 0):
                    scaled = scaled.scale(-1)
                assert scaled == direct_coefficients(a, b, n, k), (a, b, n, k)


def _exact_sqrt(value: Fraction) -> Fraction:
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    assert num * num == value.numerator and den * den == value.denominator, \
        "Gram-Schmidt ratio must be a perfect rational square"
    return Fraction(num, den)


# ----------------------------------------------------- derivative relations

def test_derivative_examples():
    assert ajp_derivative(PolyParams(0, 0, 1, 0)).coeffs == (-3,)
    assert ajp_derivative(PolyParams(0, 0, 2, 1)).coeffs == (4, -10)
    for n in range(1, 5):
        assert ajp_derivative(PolyParams(3, 1, n, n)).coeffs == \
            DensePoly.monomial(n - 1, n).coeffs


def test_differentiation_formula():
    # (d/dx - k/x) member = -(alpha+beta+n+k+2) * raised-parameter member,
    # alpha in {0, 1, 2, 5/2}
    assert not verify.run_rows({"differentiation-formula": 6})["failures"]


def test_differential_difference_relations():
    for a in (F(0), F(1), F(1, 2)):
        for b in (F(0), F(1), F(3, 2)):
            for n in range(1, 7):
                for k in range(0, n + 1):
                    p = PolyParams(a, b, n, k)
                    assert dd_raising_residual(p).is_zero, (a, b, n, k)
                    if k >= 1:
                        assert dd_lowering_residual(p).is_zero, (a, b, n, k)


def test_ode_residual():
    assert ode_residual(PolyParams(7, F(1, 2), 3, 3), F(2, 5)) == 0
    assert ode_residual(PolyParams(0, 0, 1, 0), 0.37) == pytest.approx(0)
    assert ode_residual(PolyParams(0, 0, 2, 1), F(1)) == 0


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.234, 0.567)])
@pytest.mark.parametrize("n", [20, 30, 40])
def test_residuals_at_float_parameters_are_exact_zeros(a, b, n):
    # on float coefficients the ode residual at (0.5, 0.5), k = 0 read 12 at
    # n = 20, 8.2e8 at n = 30 and 7.3e15 at n = 40 over [0, 1]
    for k in (0, 3):
        p = PolyParams(a, b, n, k)
        assert ode_residual_poly(p).is_zero, k
        assert diff_formula_residual(p).is_zero, k
        assert dd_raising_residual(p).is_zero, k
        assert max(abs(ode_residual(p, i / 64)) for i in range(65)) == 0, k
    assert dd_lowering_residual(PolyParams(a, b, n, 3)).is_zero


# ------------------------------------------------------------ weight & sign

def test_weight_eval():
    assert weight_eval(0, 0, F(1, 3)) == 1
    assert weight_eval(1, 0, F(1, 2)) == F(1, 2)
    assert weight_eval(F(-1, 2), F(-1, 2), 0.5) == pytest.approx(2)
    with pytest.raises(DivergenceError):
        weight_eval(-1, 0, 0)
    with pytest.raises(DivergenceError):
        weight_eval(0, F(-1, 2), 1)


def test_endpoint_sign_alternates():
    for a, b in ((F(0), F(0)), (F(2), F(1)), (F(1, 2), F(1, 2))):
        for n in range(0, 9):
            for k in range(0, n + 1):
                assert endpoint_sign(PolyParams(a, b, n, k)) == (-1) ** (n - k)


def test_endpoint_value_exact_for_zero_beta():
    assert not verify.run_rows({"endpoint-value": 8})["failures"]


# ------------------------------------------------------- structural checks

def test_composition_and_subset_identities():
    # the k = 0 case is the classical subset: the shifted Jacobi polynomial
    # with alpha + 1
    assert not verify.run_rows({"composition-identity": 6})["failures"]


def test_shift_invariance():
    assert not verify.run_rows({"shift-invariance": 4})["failures"]


def test_monomial_orthogonality_lemma():
    assert not verify.run_rows({"monomial-orthogonality": 7})["failures"]


def test_full_orthogonality_small():
    for n in range(0, 7):
        members = [member(1, 1, n, k) for k in range(n + 1)]
        for k in range(n + 1):
            for l in range(n + 1):
                ip = weighted_inner_product(members[k], members[l], 1, 1)
                if k == l:
                    assert ip == ajp_norm_h(PolyParams(1, 1, n, k))
                else:
                    assert ip == 0


def test_beta_moment_is_the_norm_oracle():
    # integral of (2-3x)^2 expanded by hand into Beta moments equals h(0,0,1,0)
    assert 4 * beta_moment(0, 0) - 12 * beta_moment(1, 0) + 9 * beta_moment(2, 0) == 1
