"""Float members of the exponential systems against the exact member.

e_eval, ea_eval, et_eval and ZSystemSpec.member_matrix take every member,
the k = 0 associated function included, from the three-term recurrence
(exppoly.member_values). The oracle is the exact
member polynomial at exact parameters, evaluated at the same float
x = exp(-t) taken as a Fraction. On t in [0, 5] these members stay below
about 125 in size, so the absolute bound 1e-12 is near the rounding of
their values; float Horner on expanded coefficients misses it by 3e-3 at
n = 20 and by 2e5 at n = 30.
"""

import math
from fractions import Fraction as F

import pytest

from altpoly.exppoly import ExpPolySystem, e_eval, e_zeros, ea_eval, et_eval
from altpoly.marginal import a_coefficients, t_coefficients
from altpoly.zfun import ZSystemSpec

TS = [5 * i / 50 for i in range(51)]
SIZES = (10, 20, 30)


def indices(n):
    return (0, 1, n // 2, n)


def worst_error(route, exact, ts=TS, factor=1.0):
    """Largest |route(t) - exact(x)| over ts, x = exp(-factor t) as the routes take it."""
    return max(abs(F(route(t)) - exact(F(math.exp(-(factor * t))))) for t in ts)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("alpha,beta", [(F(1, 2), F(3, 2)), (F(5, 2), F(1, 2))])
def test_e_eval_against_exact_member(alpha, beta, n):
    system = ExpPolySystem(alpha, beta, n)
    for k in indices(n):
        err = worst_error(lambda t: e_eval(system, k, t), system.member_poly(k))
        assert err < 1e-12, (k, float(err))


@pytest.mark.parametrize("n", SIZES)
def test_ea_eval_against_exact_member(n):
    for k in indices(n):
        err = worst_error(lambda t: ea_eval(n, k, t), a_coefficients(n, k))
        assert err < 1e-12, (k, float(err))


@pytest.mark.parametrize("n", SIZES)
def test_et_eval_against_exact_member(n):
    for k in indices(n):
        err = worst_error(lambda t: et_eval(n, k, t), t_coefficients(n, k))
        assert err < 1e-12, (k, float(err))


@pytest.mark.parametrize("n", SIZES)
def test_member_matrix_against_exact_members(n):
    # a Z-tilde system at (1/2, 3/2): rescaled by its largest zero, sampled so
    # that factor * t covers [0, 5]
    alpha, omega = F(1, 2), F(3)
    zeros = e_zeros(alpha, alpha * omega, n)
    gamma = zeros.max_lambda()
    spec = ZSystemSpec(n=n, omega=omega, alpha_n=alpha, gamma_n=gamma, scaled=True,
                       zeros=zeros)
    ts = [t / gamma for t in TS]
    matrix = spec.member_matrix(ts)
    system = ExpPolySystem(alpha, alpha * omega, n)
    assert matrix.shape == (len(ts), n + 1) and (matrix[:, 0] == 1.0).all()
    for k in indices(n)[1:]:
        column = dict(zip(ts, matrix[:, k].tolist()))
        err = worst_error(column.__getitem__, system.member_poly(k), ts, gamma)
        assert err < 1e-12, (k, float(err))
