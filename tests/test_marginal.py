import math
from fractions import Fraction

import pytest

from altpoly import verify
from altpoly.errors import DivergenceError
from altpoly.exact import PiRational
from altpoly.marginal import (
    MarginalKind,
    a_coefficients,
    a_norm,
    a_single_integral,
    is_normalizable,
    plot_table,
    t_coefficients,
    t_norm,
    t_scaling,
    t_single_integral,
)
from altpoly.poly import DensePoly
from altpoly.quad import weighted_inner_product
from altpoly.verify import shifted_chebyshev_coefficients, shifted_legendre_coefficients

F = Fraction


# ------------------------------------------------------------------- A-kind

def test_a_expansion_examples():
    assert a_coefficients(2, 2).coeffs == (0, 0, 1)
    assert a_coefficients(2, 1).coeffs == (0, 3, -4)
    assert a_coefficients(2, 0).coeffs == (1, -6, 6)
    assert a_coefficients(1, 0).coeffs == (1, -2)


def test_a_recurrence_matches_expansion():
    assert not verify.run_rows({"a-recurrence-vs-expansion": 12})["failures"]


def test_a_equals_marginal_family_member():
    assert not verify.run_rows({"a-is-family-member": 12})["failures"]


def test_a_norm_values_and_oracle():
    assert a_norm(2, 1, 1) == F(1, 2)
    assert a_norm(2, 1, 2) == 0
    with pytest.raises(DivergenceError):
        a_norm(3, 0, 0)


def test_a_single_integral():
    assert a_single_integral(2, 1) == 1
    assert a_single_integral(2, 2) == F(1, 2)
    assert a_single_integral(5, 5) == F(1, 5)
    with pytest.raises(DivergenceError):
        a_single_integral(4, 0)


def test_a_singular_member_is_shifted_legendre():
    assert a_coefficients(0, 0) == shifted_legendre_coefficients(0)
    assert not verify.run_rows({"a-singular-is-shifted-legendre": 10})["failures"]


def test_a_differential_relations_exact():
    assert not verify.run_rows({"a-differential-relations": 8})["failures"]


# ------------------------------------------------------------------- T-kind

def test_t_scaling_values():
    assert t_scaling(1, 0) == 2
    assert t_scaling(2, 1) == 2
    assert t_scaling(2, 0) == F(8, 3)
    assert t_scaling(4, 4) == 1


def test_t_scaling_equals_the_falling_factorial_ratio():
    # (n-k)! / (n-k-1/2)_{n-k} as a product of Fractions, for every
    # m = n - k up to 200 (t_scaling depends on m alone)
    for k in range(201):
        m = 200 - k
        falling = math.prod((Fraction(2 * m - 1, 2) - i for i in range(m)), start=Fraction(1))
        assert t_scaling(200, k) == math.factorial(m) / falling, m


def test_t_coefficients_examples():
    assert t_coefficients(1, 0).coeffs == (1, -2)
    assert t_coefficients(2, 1).coeffs == (0, 5, -6)
    assert t_coefficients(2, 0).coeffs == (1, -8, 8)


def test_t_member_against_shifted_jacobi_route():
    # T_21 equals 2x times the degree-1 shifted Jacobi with (3/2, -1/2)
    from altpoly.polycore import shifted_jacobi_coefficients
    route = shifted_jacobi_coefficients(1, F(3, 2), F(-1, 2)).shift_up(1).scale(2)
    assert route == t_coefficients(2, 1)


def test_t_recurrence_matches_scaled_family():
    assert not verify.run_rows({"t-recurrence-vs-scaled-family": 10})["failures"]


def test_t_singular_member_is_shifted_chebyshev():
    assert t_coefficients(0, 0) == shifted_chebyshev_coefficients(0)
    assert not verify.run_rows({"t-singular-is-shifted-chebyshev": 10})["failures"]


def test_t_norm_against_beta_oracle():
    assert t_norm(1, 1, 1) == PiRational(0, F(1, 2))
    assert t_norm(2, 1, 2) == 0
    assert t_norm(2, 2, 2) == PiRational(0, F(5, 16))
    with pytest.raises(DivergenceError):
        t_norm(2, 0, 0)


def test_t_norm_edge_cases_use_double_factorial_conventions():
    # k = l = n hits (2n-k-l)!! = 0!! and (2n-k-l-1)!! = (-1)!!: the
    # t-orthogonality row's diagonal; k = 1 in the single integral hits
    # (2k-3)!! = (-1)!!
    oracle = weighted_inner_product(
        t_coefficients(1, 1), DensePoly.one(), F(-3, 2), F(-1, 2))
    assert t_single_integral(1, 1) == oracle == PiRational(0, 1)


def test_t_single_integral():
    assert t_single_integral(1, 1) == PiRational(0, 1)
    assert t_single_integral(2, 1) == PiRational(0, 2)
    # Beta oracle on x^2 is authoritative here: B(3/2, 1/2) = pi/2
    oracle = weighted_inner_product(
        t_coefficients(2, 2), DensePoly.one(), F(-3, 2), F(-1, 2))
    assert oracle == PiRational(0, F(1, 2))
    assert t_single_integral(2, 2) == oracle
    with pytest.raises(DivergenceError):
        t_single_integral(3, 0)


@pytest.mark.parametrize("call, args, want", [
    (a_norm, (20002, 1, 1), F(1, 2)),
    (a_norm, (10 ** 6, 3, 3), F(1, 6)),
    (a_single_integral, (20002, 10001), F(1, 10001)),
    (t_norm, (5001, 5001, 5001), verify._t_norm_formula(5001, 5001, 5001)),
    (t_norm, (12000, 3, 3), verify._t_norm_formula(12000, 3, 3)),
    (t_single_integral, (12000, 6000), verify._t_integral_formula(12000, 6000)),
], ids=lambda v: getattr(v, "__name__", None))
def test_norms_and_integrals_stay_exact_past_the_factor_cap(call, args, want):
    # past the 20,000 factors of EXACT_FACTOR_CAP a Gamma ratio of the Beta
    # moments turns float; the marginal names answer exactly for every n
    got = call(*args)
    assert got == want and type(got) is type(want)


def test_t_ode():
    assert not verify.run_rows({"t-ode": 8})["failures"]


def test_t_endpoint_values_are_unit():
    for n in range(1, 9):
        for k in range(0, n + 1):
            assert t_coefficients(n, k)(F(1)) == (-1) ** (n - k)


# -------------------------------------------------------------------- misc

def test_is_normalizable():
    assert not is_normalizable(MarginalKind.A, 0)
    assert is_normalizable(MarginalKind.A, 1)
    assert not is_normalizable(MarginalKind.T, 0)
    assert is_normalizable(MarginalKind.T, 3)
    with pytest.raises(TypeError):
        is_normalizable("A", 1)


def test_weight_descriptors():
    assert MarginalKind.A.weight_desc == (F(-1), F(0))
    assert MarginalKind.T.weight_desc == (F(-3, 2), F(-1, 2))


def test_plot_table_shape_and_endpoints():
    rows = plot_table(MarginalKind.A, 5, 512)
    assert len(rows) == 512
    x_last, values = rows[-1]
    assert x_last == 1.0
    for k, v in enumerate(values, start=1):
        assert v == pytest.approx((-1) ** (5 - k), abs=1e-12)
    x0, values0 = rows[0]
    assert x0 == 0.0 and all(v == 0 for v in values0)


def test_plot_table_reads_points_as_an_index():
    # a numpy count gives the rows Python floats, as an int count does
    import numpy as np

    rows = plot_table(MarginalKind.A, 3, np.int64(9))
    assert rows == plot_table(MarginalKind.A, 3, 9)
    assert all(type(x) is float for x, _ in rows)


def test_plot_table_exact_mode():
    rows = plot_table(MarginalKind.T, 3, 5, exact=True)
    assert rows[-1][0] == 1
    assert rows[-1][1] == (1, -1, 1)
