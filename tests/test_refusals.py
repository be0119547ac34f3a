"""Library refusals and edge answers that no other test reaches: each
refusal's type and message, and the value of each edge branch.

Every index an entry point takes goes through exact.whole_index; EDGES walks
each one: at the ends of its range the entry point answers (or raises its
documented mathematical refusal), and one step outside, at 2.5 and at 3.0 it
raises the helper's ValueError in the helper's wording."""

import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

import altpoly
from altpoly import exppoly, marginal, polycore, quad, verify, zfun
from altpoly.errors import (CollocationError, DivergenceError, FeasibilityError,
                            NonNormalizableError, ValueRangeError)
from altpoly.exact import double_factorial, falling_factorial, gamma2_ratio
from altpoly.exppoly import ExpPolySystem, ea_derivative_relation_residual, semi_axis_rule
from altpoly.marginal import MarginalKind
from altpoly.poly import DensePoly
from altpoly.polycore import PolyParams

SYSTEM = ExpPolySystem(1, 0, 3)
XS = (0.0, 0.5, 1.0)


def singular_integral(n, alpha):
    """The kernel's refusal of the singular member's integral at (n, 0)."""
    return DivergenceError, f"weighted integral of member (n={n}, k=0) diverges for alpha = {alpha}"


def singular_norm(n, alpha):
    """The kernel's refusal of the singular member's norm at (n, 0)."""
    return NonNormalizableError, f"member (n={n}, k=0) is non-normalizable for alpha = {alpha}"


def edge(entry, index, lo, hi, call, refusals=None, named=None):
    """One walked index: entry point, index name, range lo..hi (hi = None:
    no upper bound), the call on the index value, the documented refusals by
    index value as (type, message), and by index value the plain id (the
    entry point's name alone) a refusal case goes by in place of the
    generated one."""
    return entry, index, lo, hi, call, refusals or {}, named or {}


EDGES = [
    edge("PolyParams", "n", 0, None, lambda v: PolyParams(0, 0, v, 0)),
    edge("PolyParams", "k", 0, 4, lambda v: PolyParams(0, 0, 3, v)),
    edge("ajp_recurrence", "n", 0, None, lambda v: polycore.ajp_recurrence(0, 0, v),
         named={-1: "ajp_recurrence"}),
    edge("jacobi_rows", "n", 0, None, lambda v: polycore.jacobi_rows(1, 0, v, XS, 0, 0)),
    edge("jacobi_rows", "lo", 0, 4, lambda v: polycore.jacobi_rows(1, 0, 3, XS, v, 3)),
    edge("jacobi_rows", "hi", 0, 3, lambda v: polycore.jacobi_rows(1, 0, 3, XS, 1, v)),
    edge("direct_coefficients", "n", 0, None, lambda v: polycore.direct_coefficients(0, 0, v, 3)),
    edge("direct_coefficients", "k", 3, None, lambda v: polycore.direct_coefficients(0, 0, 3, v),
         named={2: "direct_coefficients"}),
    edge("direct_norm_d", "n", 0, None, lambda v: polycore.direct_norm_d(0, 0, v, 3)),
    edge("direct_norm_d", "k", 3, None, lambda v: polycore.direct_norm_d(0, 0, 3, v)),
    edge("reciprocity_coefficients", "n", 0, None,
         lambda v: polycore.reciprocity_coefficients(0, 0, v, 0)),
    edge("reciprocity_coefficients", "k", 0, 3,
         lambda v: polycore.reciprocity_coefficients(0, 0, 3, v)),
    edge("shifted_jacobi", "m", 0, None,
         lambda v: polycore.shifted_jacobi(v, 1, 0, Fraction(1, 2))),
    edge("shifted_jacobi_coefficients", "m", 0, None,
         lambda v: polycore.shifted_jacobi_coefficients(v, 1, 0)),
    # k = -1 leaves the range of PolyParams first
    edge("diff_formula_residual", "k", 0, 2,
         lambda v: polycore.diff_formula_residual(PolyParams(0, 0, 3, v)),
         {-1: (ValueError, "k = -1 outside 0..4")}, named={3: "diff_formula_residual"}),
    edge("dd_raising_residual", "k", 0, 3,
         lambda v: polycore.dd_raising_residual(PolyParams(0, 0, 3, v)),
         {-1: (ValueError, "k = -1 outside 0..4")}),
    edge("ajp_norm_h", "k", 0, 3, lambda v: polycore.ajp_norm_h(PolyParams(0, 0, 3, v)),
         {-1: (ValueError, "k = -1 outside 0..4")}),
    edge("ajp_single_integral", "k", 0, 3,
         lambda v: polycore.ajp_single_integral(PolyParams(0, 0, 3, v)),
         {-1: (ValueError, "k = -1 outside 0..4")}),
    edge("dd_lowering_residual", "k", 1, 3,
         lambda v: polycore.dd_lowering_residual(PolyParams(0, 0, 3, v)),
         named={0: "dd_lowering_residual"}),
    edge("a_coefficients", "n", 0, None, lambda v: marginal.a_coefficients(v, 0)),
    edge("a_coefficients", "k", 0, 3, lambda v: marginal.a_coefficients(3, v),
         named={4: "a_coefficients"}),
    edge("t_coefficients", "n", 0, None, lambda v: marginal.t_coefficients(v, 0)),
    edge("t_coefficients", "k", 0, 3, lambda v: marginal.t_coefficients(3, v),
         named={4: "t_coefficients"}),
    edge("a_single_integral", "n", 0, None, lambda v: marginal.a_single_integral(v, 0),
         {0: singular_integral(0, -1)}),
    edge("a_single_integral", "k", 0, 3, lambda v: marginal.a_single_integral(3, v),
         {0: singular_integral(3, -1)}, named={4: "a_single_integral"}),
    edge("t_single_integral", "n", 0, None, lambda v: marginal.t_single_integral(v, 0),
         {0: singular_integral(0, "-3/2")}),
    edge("t_single_integral", "k", 0, 3, lambda v: marginal.t_single_integral(3, v),
         {0: singular_integral(3, "-3/2")}, named={4: "t_single_integral"}),
    edge("t_scaling", "n", 0, None, lambda v: marginal.t_scaling(v, 0)),
    edge("t_scaling", "k", 0, 3, lambda v: marginal.t_scaling(3, v)),
    edge("a_norm", "n", 0, None, lambda v: marginal.a_norm(v, 0, 0), {0: singular_norm(0, -1)}),
    edge("a_norm", "k", 0, 3, lambda v: marginal.a_norm(3, v, 1), named={4: "a_norm"}),
    edge("a_norm", "l", 0, 3, lambda v: marginal.a_norm(3, 0, v), {0: singular_norm(3, -1)}),
    edge("t_norm", "n", 0, None, lambda v: marginal.t_norm(v, 0, 0),
         {0: singular_norm(0, "-3/2")}),
    edge("t_norm", "k", 0, 3, lambda v: marginal.t_norm(3, v, 0), {0: singular_norm(3, "-3/2")}),
    edge("t_norm", "l", 0, 3, lambda v: marginal.t_norm(3, 2, v)),
    edge("a_recurrence", "n", 1, None, marginal.a_recurrence),
    edge("t_recurrence", "n", 1, None, marginal.t_recurrence, named={0: "t_recurrence"}),
    edge("shifted_legendre_coefficients", "m", 0, None, verify.shifted_legendre_coefficients),
    edge("shifted_chebyshev_coefficients", "m", 0, None, verify.shifted_chebyshev_coefficients),
    edge("is_normalizable", "k", 0, None, lambda v: marginal.is_normalizable(MarginalKind.A, v)),
    edge("ode_apply", "n", 0, None, lambda v: polycore.ode_apply(0, 0, v, 0, DensePoly((1, 1)))),
    edge("ode_apply", "k", 0, 3, lambda v: polycore.ode_apply(0, 0, 3, v, DensePoly((1, 1)))),
    edge("plot_table", "n", 0, None, lambda v: marginal.plot_table(MarginalKind.A, v, 5)),
    edge("plot_table", "points", 2, None, lambda v: marginal.plot_table(MarginalKind.A, 3, v),
         named={1: "plot_table"}),
    edge("ExpPolySystem", "n", 1, None, lambda v: ExpPolySystem(1, 0, v)),
    edge("ExpPolySystem.member_poly", "k", 0, 4, SYSTEM.member_poly),
    edge("e_eval", "k", 0, 4, lambda v: exppoly.e_eval(SYSTEM, v, 0.5)),
    edge("e_norm", "k", 1, 3, lambda v: exppoly.e_norm(SYSTEM, v),
         {0: (DivergenceError, "associated function is not integrable on the semi-axis")}),
    edge("ea_derivative_relation_residual", "n", 1, None,
         lambda v: ea_derivative_relation_residual(v, 1, 1.0)),
    edge("ea_derivative_relation_residual", "k", 1, 3,
         lambda v: ea_derivative_relation_residual(3, v, 1.0),
         named={0: "ea_derivative_relation_residual"}),
    edge("check_jacobi_weight", "m", 1, None, lambda v: quad.check_jacobi_weight(v, 0, 0)),
    edge("gauss_jacobi_rule", "m", 1, None, lambda v: quad.gauss_jacobi_rule(v, 0, 0)),
    edge("e_zeros", "n", 1, None, lambda v: exppoly.e_zeros(1, 0, v)),
    edge("legendre_type_quadrature", "n", 1, None, exppoly.legendre_type_quadrature),
    edge("semi_axis_rule", "n", 1, None, semi_axis_rule),
    edge("z_search", "n", 1, None, lambda v: zfun.z_search(v, 0, zfun.whole_candidates(64))),
    edge("z_build", "n", 1, None, lambda v: zfun.z_build(v, 0, zfun.whole_candidates(64))),
    edge("z_search_real", "n", 1, None, lambda v: zfun.z_search_real(v, 0.5)),
    edge("z_build_real", "n", 1, None, lambda v: zfun.z_build_real(v, 0.5)),
    edge("ZSystemSpec.member_eval", "k", 0, 3,
         lambda v: zfun.z_build(3, 0, zfun.whole_candidates(64)).member_eval(v, 0.5)),
    edge("whole_candidates", "limit", 0, None, zfun.whole_candidates),
    edge("rational_candidates", "limit", 0, None, zfun.rational_candidates),
    edge("falling_factorial", "m", 0, None, lambda v: falling_factorial(2, v)),
    edge("double_factorial", "m", -1, None, double_factorial),
]


def _outside(entry, index, lo, hi, call, refusals, named):
    """The walk's refusal cases of one row: one step outside each end, 2.5
    and 3.0, as (id, call, error, message)."""
    span = f"{lo}..{'inf' if hi is None else hi}"
    for v in (lo - 1, *(() if hi is None else (hi + 1,)), 2.5, 3.0):
        name = f"{entry}-{index}={v}"
        if type(v) is int:      # not 3.0, which equals the key 3
            error, message = refusals.get(v, (ValueError, f"{index} = {v} outside {span}"))
            yield named.get(v, name), lambda v=v: call(v), error, message
        else:
            yield name, lambda v=v: call(v), ValueError, \
                f"{index} must be a whole number, got {index} = {v}"


WALK = [case for row in EDGES for case in _outside(*row)]
ENDS = [(f"{entry}-{index}={v}", call, v, refusals.get(v))
        for entry, index, lo, hi, call, refusals, _ in EDGES
        for v in (lo, *(() if hi is None else (hi,)))]

# entry points that normalize two parameters, by name, as a call on them
PARAMETER_PAIRS = [
    ("direct_coefficients", "alpha", "beta",
     lambda a, b: polycore.direct_coefficients(a, b, 1, 2)),
    ("direct_norm_d", "alpha", "beta", lambda a, b: polycore.direct_norm_d(a, b, 1, 2)),
    ("reciprocity_coefficients", "alpha", "beta",
     lambda a, b: polycore.reciprocity_coefficients(a, b, 2, 1)),
    ("ajp_recurrence", "alpha", "beta", lambda a, b: polycore.ajp_recurrence(a, b, 2)),
    ("weighted_inner_product", "alpha", "beta",
     lambda a, b: quad.weighted_inner_product(DensePoly.one(), DensePoly.one(), a, b)),
    ("integrate_semi_axis", "alpha", "beta",
     lambda a, b: quad.integrate_semi_axis(DensePoly.one(), a, b)),
    ("ode_apply", "alpha", "beta",
     lambda a, b: polycore.ode_apply(a, b, 2, 0, DensePoly((1, 1)))),
    ("weight_eval", "alpha", "beta", lambda a, b: polycore.weight_eval(a, b, 0.5)),
    ("ExpPolySystem", "alpha", "beta", lambda a, b: ExpPolySystem(a, b, 3)),
    ("shifted_jacobi_coefficients", "a", "b",
     lambda a, b: polycore.shifted_jacobi_coefficients(2, a, b)),
    ("shifted_jacobi", "a", "b", lambda a, b: polycore.shifted_jacobi(2, a, b, 0.5)),
]
NONFINITE = [
    *(case for entry, first, second, call in PARAMETER_PAIRS for case in (
        (f"{entry}-{first}=nan", lambda call=call: call(math.nan, 0), first, math.nan),
        (f"{entry}-{first}=inf", lambda call=call: call(math.inf, 0), first, math.inf),
        (f"{entry}-{second}=-inf", lambda call=call: call(0, -math.inf), second, -math.inf))),
    ("z_build-omega=nan", lambda: zfun.z_build(2, math.nan, zfun.whole_candidates(8)),
     "omega", math.nan),
    ("z_search_real-omega=inf", lambda: zfun.z_search_real(2, math.inf), "omega", math.inf),
    *((f"weight_peak-omega={v}", lambda v=v: zfun.weight_peak(v), "omega", v)
      for v in (math.nan, math.inf, -math.inf)),
]

REFUSALS = [
    *WALK,
    ("PolyParams-k=1.5", lambda: PolyParams(0, 0, 3, 1.5), ValueError,
     "k must be a whole number, got k = 1.5"),
    # 0.0 equals the index 0, which e_norm refuses as the associated function
    ("e_norm-k=0.0", lambda: exppoly.e_norm(SYSTEM, 0.0), ValueError,
     "k must be a whole number, got k = 0.0"),
    *((name, call, ValueError, f"{which} must be finite, got {which} = {v}")
      for name, call, which, v in NONFINITE),
    *((f"PolyParams-alpha={v}", lambda v=v: PolyParams(v, 0, 2, 0), ValueError,
       f"alpha must be finite, got alpha = {v}") for v in (math.nan, math.inf, -math.inf)),
    # two indices outside at once: n is named, as it is checked first
    ("direct_coefficients-n=-2", lambda: polycore.direct_coefficients(0, 0, -2, -1), ValueError,
     "n = -2 outside 0..inf"),
    ("direct_norm_d-n=-2", lambda: polycore.direct_norm_d(0, 0, -2, -1), ValueError,
     "n = -2 outside 0..inf"),
    ("reciprocity_coefficients-k=5", lambda: polycore.reciprocity_coefficients(0, 0, 3, 5),
     ValueError, "k = 5 outside 0..3"),
    # calls that answered wrongly or failed deep inside before the one index check
    ("direct_coefficients-n=1.0", lambda: polycore.direct_coefficients(0, 0, 1.0, 3), ValueError,
     "n must be a whole number, got n = 1.0"),
    ("t_scaling-k=5", lambda: marginal.t_scaling(3, 5), ValueError, "k = 5 outside 0..3"),
    ("shifted_chebyshev_coefficients-m=-2", lambda: verify.shifted_chebyshev_coefficients(-2),
     ValueError, "m = -2 outside 0..inf"),
    ("t_single_integral-n=3.5", lambda: marginal.t_single_integral(3.5, 1), ValueError,
     "n must be a whole number, got n = 3.5"),
    ("ea_derivative_relation_residual-t=-1.0",
     lambda: ea_derivative_relation_residual(3, 1, -1.0), ValueError,
     "exponential members live on t >= 0, got t = -1.0"),
    ("beta_moment-a=inf", lambda: quad.beta_moment(math.inf, 0), ValueRangeError,
     "Gamma(inf) Gamma(1) / Gamma(inf) leaves the double range"),
    ("beta_moment-b=inf", lambda: quad.beta_moment(0, math.inf), ValueRangeError,
     "Gamma(1) Gamma(inf) / Gamma(inf) leaves the double range"),
    ("gamma2_ratio-nan", lambda: gamma2_ratio(math.nan, 1, 2), ValueRangeError,
     "Gamma(nan) Gamma(1) / Gamma(2) leaves the double range"),
    # float norms whose (n-k)! leaves the double range while the Gamma ratio does not
    ("ajp_norm_h-factorial",
     lambda: polycore.ajp_norm_h(PolyParams(1.0, 0.5, 10**6 + 171, 10**6)), ValueRangeError,
     "squared norm of member (n=1000171, k=1000000) for alpha = 1.0, beta = 0.5: "
     "the factorial (171)! leaves the double range"),
    ("direct_norm_d-factorial", lambda: polycore.direct_norm_d(1.0, 0.5, 10**6, 10**6 + 171),
     ValueRangeError, "direct squared norm (n=1000000, k=1000171) for alpha = 1.0, "
     "beta = 0.5: the factorial (171)! leaves the double range"),
    ("ajp_single_integral", lambda: polycore.ajp_single_integral(PolyParams(-2, 0, 3, 0)),
     DivergenceError, "weighted integral of member (n=3, k=0) diverges for alpha = -2"),
    ("direct_norm_d", lambda: polycore.direct_norm_d(-1, 0, 1, 2), DivergenceError,
     "direct norms need alpha > -1 and beta > -1"),
    ("ExpPolySystem", lambda: ExpPolySystem(-1, 0, 3), ValueError,
     "system needs alpha > -1 and beta > -1"),
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


@pytest.mark.parametrize("call,v,refusal", [case[1:] for case in ENDS],
                         ids=[case[0] for case in ENDS])
def test_an_index_at_either_end_of_its_range_answers(call, v, refusal):
    if refusal is None:
        call(v)
        return
    error, message = refusal
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(v)
    assert type(info.value) is error


def test_the_walk_covers_every_row_and_every_index_check():
    # a walk that runs no rows is not a pass
    assert len(ENDS) >= len(EDGES) >= 50
    assert len(WALK) >= 3 * len(EDGES)
    assert len({case[0] for case in REFUSALS}) == len(REFUSALS)
    # every public function that takes an index through the helper is walked;
    # a method or __post_init__ is named after its class
    walked = {row[0] for row in EDGES}
    checking = set()
    for path in Path(altpoly.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = [(None, node) for node in tree.body]
        owners += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body]
        for cls, node in owners:
            if isinstance(node, ast.FunctionDef) and node.name != "whole_index" and any(
                    isinstance(sub, ast.Name) and sub.id == "whole_index"
                    for sub in ast.walk(node)):
                name = node.name if cls is None else (
                    cls if node.name == "__post_init__" else f"{cls}.{node.name}")
                checking.add(name)
    assert {name for name in checking if not name.startswith("_")} <= walked, \
        sorted(checking - walked)


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
