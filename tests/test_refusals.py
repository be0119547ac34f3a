"""Library refusals and edge answers that no other test reaches: each
refusal's type and message, and the value of each edge branch."""

import math
import re
from fractions import Fraction

import pytest

from altpoly import marginal, polycore, quad, zfun
from altpoly.errors import CollocationError, DivergenceError, FeasibilityError, ValueRangeError
from altpoly.exact import gamma2_ratio
from altpoly.exppoly import ExpPolySystem, ea_derivative_relation_residual, semi_axis_rule
from altpoly.marginal import MarginalKind
from altpoly.poly import DensePoly
from altpoly.polycore import PolyParams

REFUSALS = [
    ("ajp_recurrence", lambda: polycore.ajp_recurrence(0, 0, -1), ValueError, "need n >= 0"),
    ("ajp_recurrence-n=2.5", lambda: polycore.ajp_recurrence(0, 0, 2.5), ValueError,
     "n must be a whole number, got n = 2.5"),
    ("PolyParams-n=2.5", lambda: PolyParams(0, 0, 2.5, 0), ValueError,
     "n must be a whole number, got n = 2.5"),
    ("PolyParams-n=-1", lambda: PolyParams(0, 0, -1, 0), ValueError,
     "n must be a whole number, got n = -1"),
    ("PolyParams-k=1.5", lambda: PolyParams(0, 0, 3, 1.5), ValueError,
     "k must be a whole number, got k = 1.5"),
    ("ExpPolySystem-n=2.5", lambda: ExpPolySystem(1, 0, 2.5), ValueError,
     "n must be a whole number, got n = 2.5"),
    *((f"PolyParams-alpha={v}", lambda v=v: PolyParams(v, 0, 2, 0), ValueError,
       f"alpha must be finite, got alpha = {v}") for v in (math.nan, math.inf, -math.inf)),
    ("beta_moment-a=inf", lambda: quad.beta_moment(math.inf, 0), ValueRangeError,
     "Gamma(inf) Gamma(1) / Gamma(inf) leaves the double range"),
    ("beta_moment-b=inf", lambda: quad.beta_moment(0, math.inf), ValueRangeError,
     "Gamma(1) Gamma(inf) / Gamma(inf) leaves the double range"),
    ("gamma2_ratio-nan", lambda: gamma2_ratio(math.nan, 1, 2), ValueRangeError,
     "Gamma(nan) Gamma(1) / Gamma(2) leaves the double range"),
    ("ajp_single_integral", lambda: polycore.ajp_single_integral(PolyParams(-2, 0, 3, 0)),
     DivergenceError, "weighted integral of member (n=3, k=0) diverges for alpha = -2"),
    ("direct_norm_d", lambda: polycore.direct_norm_d(-1, 0, 1, 2), DivergenceError,
     "direct norms need alpha > -1 and beta > -1"),
    ("direct_coefficients", lambda: polycore.direct_coefficients(0, 0, 3, 2), ValueError,
     "direct family is indexed by k >= n"),
    ("direct_coefficients-n=-1", lambda: polycore.direct_coefficients(0, 0, -1, 3), ValueError,
     "direct family needs n >= 0, got n = -1, k = 3"),
    ("direct_coefficients-n=-2", lambda: polycore.direct_coefficients(0, 0, -2, -1), ValueError,
     "direct family needs n >= 0, got n = -2, k = -1"),
    ("direct_norm_d-n=-1", lambda: polycore.direct_norm_d(0, 0, -1, 3), ValueError,
     "direct family needs n >= 0, got n = -1, k = 3"),
    ("direct_norm_d-n=-2", lambda: polycore.direct_norm_d(0, 0, -2, -1), ValueError,
     "direct family needs n >= 0, got n = -2, k = -1"),
    *((f"reciprocity_coefficients-k={k}",
       lambda k=k: polycore.reciprocity_coefficients(0, 0, 3, k), ValueError,
       f"reciprocity route needs 0 <= k <= n, got n = 3, k = {k}") for k in (-1, 4, 5)),
    ("diff_formula_residual", lambda: polycore.diff_formula_residual(PolyParams(0, 0, 3, 3)),
     ValueError, "differentiation formula applies for k < n"),
    ("dd_lowering_residual", lambda: polycore.dd_lowering_residual(PolyParams(0, 0, 3, 0)),
     ValueError, "lowering relation applies for k >= 1"),
    ("a_coefficients", lambda: marginal.a_coefficients(3, 4), ValueError, "need 0 <= k <= n"),
    ("a_single_integral", lambda: marginal.a_single_integral(3, 4), ValueError,
     "need 0 <= k <= n"),
    ("t_coefficients", lambda: marginal.t_coefficients(3, 4), ValueError, "need 0 <= k <= n"),
    ("t_single_integral", lambda: marginal.t_single_integral(3, 4), ValueError,
     "need 0 <= k <= n"),
    ("a_norm", lambda: marginal.a_norm(3, 4, 1), ValueError, "need 0 <= k, l <= n"),
    ("t_recurrence", lambda: marginal.t_recurrence(0), ValueError, "recurrence needs n >= 1"),
    ("plot_table", lambda: marginal.plot_table(MarginalKind.A, 3, 1), ValueError,
     "need at least two sample points"),
    ("ExpPolySystem", lambda: ExpPolySystem(-1, 0, 3), ValueError,
     "system needs alpha > -1 and beta > -1"),
    ("ea_derivative_relation_residual", lambda: ea_derivative_relation_residual(3, 0, 1.0),
     ValueError, "need 1 <= k <= n"),
    ("QuadRule-lengths", lambda: quad.QuadRule((0.5,), (0.1, 0.2), quad.UNIT_INTERVAL, ("x", 1)),
     ValueError, "nodes and weights must have equal length"),
    ("QuadRule-domain", lambda: quad.QuadRule((0.5,), (0.1,), "line", ("x", 1)), ValueError,
     "unknown domain 'line'"),
    ("integrate_unit", lambda: quad.integrate_unit(lambda x: x, semi_axis_rule(3)), ValueError,
     "rule is not on the unit interval"),
    ("z_search", lambda: zfun.z_search(3, 0, []), FeasibilityError, "empty candidate set"),
    ("z_search_real", lambda: zfun.z_search_real(1, 2), FeasibilityError,
     "largest zero exceeds 1 over the whole search range"),
    ("z_collocation_fit",
     lambda: zfun.z_collocation_fit(lambda t: math.exp(-t),
                                    zfun.z_build(12, 0, zfun.whole_candidates(64))),
     CollocationError, "collocation matrix near-singular (cond 1.31e+15)"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusal_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
    if error is CollocationError:
        assert info.value.cond == pytest.approx(1.31e15, rel=1e-2)


def test_edge_answers():
    assert PolyParams(0, 0, 3, 1).regime == "normalizable"
    zero, one = DensePoly.zero(), DensePoly.one()
    exact = quad.weighted_inner_product(zero, one, 1, 0)
    assert exact == 0 and type(exact) is Fraction
    floating = quad.weighted_inner_product(zero, one, 0.5, 0)
    assert floating == 0.0 and type(floating) is float
    # feasible already at the lower end of the bracket: no bisection step
    alpha, lam = zfun.z_search_real(1, 1.5)
    assert alpha == -2 / 3 + 1e-9
    assert lam == pytest.approx(4.5e-9, rel=1e-6)
