"""The invariant table behind `altpoly verify` and the acceptance gate.

Each Row of ROWS is one invariant of the paper: a name, a suite, a parameter
grid up to a top index n, a check and a tolerance. A row without a tolerance
is exact: its check returns (got, want), compared with == on rationals,
rational multiples of pi, or floats that must agree to the bit. A row with
a tolerance gets a measured error from its check, which passes below the
tolerance. `run_suite` runs the rows of a suite with n capped by --nmax
and by each row's own cap; `run_rows` runs named rows at the n it is given,
as the acceptance criteria and the module tests do. Every point counts as
one check; a failed one, including a check that raises, is recorded with its
row name, params and detail. Checks reach the library through module
attributes (polycore.ajp_coefficients), so a tracer or a patched function
sees every call. The paper's closed forms of the marginal families, which
marginal computes as polycore kernel calls, are the marginal rows' want.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import exppoly, marginal, polycore, quad, zfun
from .exact import PiRational, double_factorial, whole_index
from .poly import DensePoly
from .polycore import PolyParams

F = Fraction
INT = (0, 1, 2)
HALF = (F(-1, 2), F(1, 2), F(3, 2))
ZERO = DensePoly.zero()


class Recorder:
    """Counts the checks of a run and keeps the failed ones."""

    def __init__(self):
        self.total = 0
        self.failures = []

    def summary(self) -> dict:
        failed = len(self.failures)
        return {"total": self.total, "passed": self.total - failed, "failed": failed,
                "failures": self.failures}


class Row:
    """One invariant. grid(n) yields the points up to the top index n, each
    a tuple of check arguments recorded under keys; check(*point) returns
    (got, want) when tol is None, else an error that must stay below tol.
    cap bounds n under run_suite; run_rows ignores it."""

    def __init__(self, name, suite, keys, grid, check, tol=None, cap=None):
        self.name, self.suite, self.keys = name, suite, keys
        self.grid, self.check, self.tol, self.cap = grid, check, tol, cap

    def top(self, nmax: int) -> int:
        return nmax if self.cap is None else min(nmax, self.cap)

    def judge(self, point) -> tuple[bool, str]:
        value = self.check(*point)
        if self.tol is None:
            got, want = value
            return (True, "") if got == want else (False, f"got {got}, want {want}")
        if value < self.tol:
            return True, ""
        return False, f"{value:.3g}, tol {self.tol:g}"


_shared: dict = {}


def _once(fn, *args):
    """fn(*args), built once per run for the rows that share it (a rule, a
    family member, a Z system); each run empties the store when it ends, so
    nothing, a patched function's result included, outlives the run. The
    key carries the argument types: 0.5 == Fraction(1, 2) but a float
    member is not the exact one."""
    key = (fn, args, tuple(map(type, args)))
    if key not in _shared:
        _shared[key] = fn(*args)
    return _shared[key]


# -------------------------------------------------------------------- grids

def _pairs(alphas, betas):
    return [(a, b) for a in alphas for b in betas]


def _nk(pairs, top, n0=0):
    """(a, b, n, k) for each weight pair, n = n0..top and k = 0..n."""
    return ((a, b, n, k) for a, b in pairs for n in range(n0, top + 1) for k in range(n + 1))


def _nkl(pairs, top, n0=0):
    """(a, b, n, k, l) with l = k..n: each pair of members once."""
    return ((a, b, n, k, l) for a, b, n, k in _nk(pairs, top, n0) for l in range(k, n + 1))


def _ns(top):
    return ((n,) for n in range(1, top + 1))


def _tri(top, k0=0):
    """(n, k) for n = 1..top and k = k0..n."""
    return ((n, k) for n in range(1, top + 1) for k in range(k0, n + 1))


def _norm_grid(top):
    """(n, k, l) for n = 1..top, k = 0..n and l = 1..n: the singular k = 0
    member has no norm, but is orthogonal to the others."""
    return ((n, k, l) for n, k in _tri(top) for l in range(1, n + 1))


def _upper(n):
    return [(k, l) for k in range(1, n + 1) for l in range(k, n + 1)]


INT2 = _pairs(INT, INT)
ABN = ("alpha", "beta", "n")
ABNK = ABN + ("k",)
ABNKL = ABNK + ("l",)


# ------------------------------------------------------------- core checks

def _member(a, b, n, k):
    return _once(_ajp, polycore.ajp_coefficients, a, b, n, k)


def _norm(a, b, n, k):
    return _once(_ajp, polycore.ajp_norm_h, a, b, n, k)


def _ajp(fn, a, b, n, k):
    return fn(PolyParams(a, b, n, k))


def _orthogonality(a, b, n, k, l):
    ip = quad.weighted_inner_product(_member(a, b, n, k), _member(a, b, n, l), a, b)
    return ip, (_norm(a, b, n, k) if k == l else 0)


def _shift_invariance(a, b, n, k, p):
    lifted = (a - 2 * p, b, n + p, k + p)
    return ((_member(a, b, n, k).shift_up(p), _norm(a, b, n, k)),
            (_member(*lifted), _norm(*lifted)))


def _direct(a, b, n, k):
    return _once(polycore.direct_coefficients, a, b, n, k)


def _direct_sign(a, b, n, k):
    v = _direct(a, b, n, k)(F(1))
    return (v > 0) - (v < 0), (-1) ** (k - n)


def _direct_orthogonality(a, b, n, k, l):
    ip = quad.weighted_inner_product(_direct(a, b, n, k), _direct(a, b, n, l), a, b)
    return ip, (polycore.direct_norm_d(a, b, n, k) if k == l else 0)


def _direct_pointwise(a, b, n, k):
    # the direct member against x^n times the shifted Jacobi factor in floats
    jacobi = polycore.shifted_jacobi_coefficients(k - n, a + 2 * n, b)
    direct = _direct(a, b, n, k)
    return max(abs(float(direct(x)) - x ** n * float(jacobi(x)))
               for x in (i / 32 for i in range(33)))


def _direct_grid(top):
    """(a, b, n, k) for k = n..n+3, the first four direct-family members."""
    return ((a, b, n, k) for a, b in INT2 for n in range(top + 1) for k in range(n, n + 4))


def _recurrence(a, b, n):
    return polycore.ajp_recurrence(a, b, n), [_member(a, b, n, k) for k in range(n, -1, -1)]


# ------------------------------------------------------------- quad checks

QUAD_PAIRS = _pairs((F(0), F(1, 2), F(-1, 2)), (F(0), F(1, 2), F(-1, 2)))


def _rule_grid(_top):
    return ((a, b, m) for a, b in QUAD_PAIRS for m in (1, 2, 5, 12, 20))


def _weight_sum(a, b, m):
    moment = float(quad.beta_moment(a, b))
    return abs(sum(_once(quad.gauss_jacobi_rule, m, a, b).weights) - moment) / abs(moment)


def _monomial_exactness(a, b, m):
    rule = _once(quad.gauss_jacobi_rule, m, a, b)
    worst = 0.0
    for j in range(2 * m):
        want = float(quad.beta_moment(a + j, b))
        worst = max(worst, abs(quad.integrate_unit(lambda x: x ** j, rule) - want) / want)
    return worst


def _inner_product_vs_quadrature(n, k, l):
    pk, pl = _member(F(0), F(1), n, k), _member(F(0), F(1), n, l)
    exact = float(quad.weighted_inner_product(pk, pl, F(0), F(1)))
    rule = _once(quad.gauss_jacobi_rule, n + 1, 0.0, 1.0)
    return abs(quad.integrate_unit(lambda x: float(pk(x)) * float(pl(x)), rule) - exact)


def _semi_axis_transform(n):
    # numeric route against the exact pullback of a squared polynomial
    member = _member(F(0), F(0), n, 1)
    exact = quad.integrate_semi_axis(member * member, 1, 0)
    numeric = quad.integrate_semi_axis(
        lambda t: float(member(math.exp(-t))) ** 2, 1.0, 0.0, m=2 * n + 8)
    return abs(numeric - float(exact))


def _sparse_ns(top):
    """n = 1..min(top, 8), then every tenth n up to top, and top itself."""
    ns = {*range(1, min(top, 8) + 1), *range(10, top + 1, 10)}
    return sorted(ns | {top} if top > 0 else ns)


def _float_member_grid(top):
    """(family, alpha, beta, n): the ajp family at INT2 and half-integer
    pairs, then the A and T families at their weights."""
    families = ([("ajp", a, b) for a, b in INT2 + _pairs(HALF, HALF)]
                + [("a", *A_WEIGHT), ("t", *T_WEIGHT)])
    return ((fam, a, b, n) for fam, a, b in families for n in _sparse_ns(top))


def _float_member_values(fam, a, b, n):
    # the float evaluator's members k = 0..n against the exact members on a
    # 33-point grid, each member's error relative to its largest |value|
    xs = [F(i, 32) for i in range(33)]
    if fam == "ajp":
        got = polycore.jacobi_rows(a + 1, b, n, [float(x) for x in xs])
        exact = [_member(a, b, n, k) for k in range(n + 1)]
    else:
        kind = marginal.MarginalKind.A if fam == "a" else marginal.MarginalKind.T
        got = marginal.member_rows(kind, n, [float(x) for x in xs], 0)
        exact = [(_a if fam == "a" else _t)(n, k) for k in range(n + 1)]
    worst = 0.0
    for row, member in zip(got.tolist(), exact):
        want = [float(member(x)) for x in xs]     # exact Horner, rounded once
        worst = max(worst, max(abs(g - w) for g, w in zip(row, want))
                    / max(abs(w) for w in want))
    return worst


# --------------------------------------------------------- marginal checks

A_WEIGHT = marginal.MarginalKind.A.weight_desc
T_WEIGHT = marginal.MarginalKind.T.weight_desc


def _a(n, k):
    return _once(marginal.a_coefficients, n, k)


def _t(n, k):
    return _once(marginal.t_coefficients, n, k)


def _a_expansion(n, k):
    """A member: sum_j (-1)^j C(n-k, j) C(n+k+j, n-k) x^(k+j)."""
    return DensePoly([0] * k + [(-1) ** j * math.comb(n - k, j) * math.comb(n + k + j, n - k)
                                for j in range(n - k + 1)])


def _t_norm_formula(n, k, l):
    """T inner product, (k, l) != (0, 0): delta_{kl} pi/(2s-1) (2n-s)!!/(2n-s-1)!!
    (2n+s-1)!!/(2n+s-2)!! with s = k + l, 0!! = (-1)!! = 1."""
    s, df = k + l, double_factorial
    return PiRational(0, F(df(2 * n - s) * df(2 * n + s - 1),
                           (2 * s - 1) * df(2 * n - s - 1) * df(2 * n + s - 2))) if k == l else 0


def _t_integral_formula(n, k):
    """T single integral, k >= 1: (2k-3)!!/(2k)!! 2n pi."""
    return PiRational(0, F(double_factorial(2 * k - 3) * 2 * n, double_factorial(2 * k)))


def shifted_legendre_coefficients(m: int) -> DensePoly:
    """P_m(1-2x), m >= 0, by the classical recurrence from P_0 = 1: the
    oracle of the singular A member."""
    y, prev, cur = DensePoly((1, -2)), DensePoly.zero(), DensePoly.one()
    for j in range(whole_index("m", m)):
        prev, cur = cur, (y * cur.scale(2 * j + 1) - prev.scale(j)).scale(F(1, j + 1))
    return cur


def shifted_chebyshev_coefficients(m: int) -> DensePoly:
    """T_m(1-2x), m >= 0, by the classical recurrence from T_0 = 1 and
    T_-1 = T_1: the oracle of the singular T member."""
    y = DensePoly((1, -2))
    prev, cur = y, DensePoly.one()
    for _ in range(whole_index("m", m)):
        prev, cur = cur, y * cur.scale(2) - prev
    return cur


def _a_relations(n, k):
    p = PolyParams(*A_WEIGHT, n, k)
    lowering = polycore.dd_lowering_residual(p) if k else ZERO
    return (polycore.dd_raising_residual(p), lowering, polycore.ode_residual_poly(p)), (ZERO,) * 3


def _a_orthogonality(n, k, l):
    oracle = quad.weighted_inner_product(_a(n, k), _a(n, l), *A_WEIGHT)
    want = F(1, 2 * k) if k == l else 0
    return (oracle, marginal.a_norm(n, k, l)), (want, want)


def _t_orthogonality(n, k, l):
    oracle = quad.weighted_inner_product(_t(n, k), _t(n, l), *T_WEIGHT)
    return (oracle, marginal.t_norm(n, k, l)), (_t_norm_formula(n, k, l),) * 2


def _a_single_integral(n, k):
    oracle = quad.weighted_inner_product(_a(n, k), DensePoly.one(), *A_WEIGHT)
    return (oracle, marginal.a_single_integral(n, k)), (F(1, k),) * 2


def _t_single_integral(n, k):
    oracle = quad.weighted_inner_product(_t(n, k), DensePoly.one(), *T_WEIGHT)
    return (oracle, marginal.t_single_integral(n, k)), (_t_integral_formula(n, k),) * 2


# -------------------------------------------------------------- exp checks

def _substitution(a, b, k):
    # e_eval against the exact member at the same x
    sys = exppoly.ExpPolySystem(a, b, 3)
    member = sys.member_poly(k)
    return max(float(abs(F(exppoly.e_eval(sys, k, t)) - member(F(math.exp(-t)))))
               for t in (0.0, 0.3, 1.7))


def _semi_axis_orthogonality(a, b, n, k, l):
    sys = exppoly.ExpPolySystem(a, b, n)
    got = quad.integrate_semi_axis(sys.member_poly(k) * sys.member_poly(l), a, b)
    return got, (exppoly.e_norm(sys, k) if k == l else 0)


def _zero_set(a, b, n):
    zs = exppoly.e_zeros(a, b, n)
    lam = zs.lambdas
    simple = len(lam) == n and lam[0] > 0 and all(x < y for x, y in zip(lam, lam[1:]))
    return max(zs.residuals) if simple else math.inf


def _gauss_type_rule(n):
    rule = exppoly.legendre_type_quadrature(n)
    worst = max(abs(sum(w * x ** m for x, w in zip(rule.nodes, rule.weights)) - 1 / (m + 1))
                * (m + 1) for m in range(1, 2 * n + 1))
    # exact on x .. x^(2n) and deliberately not on constants
    return worst if abs(sum(rule.weights) - 1) > 1e-3 else math.inf


def _semi_axis_exactness(n):
    rule = _once(exppoly.semi_axis_rule, n)
    return max(abs(sum(v * math.exp(-m * t) for t, v in zip(rule.nodes, rule.weights)) - 1 / m)
               * m for m in range(2, 2 * n + 2))


def _discrete_orthogonality(n):
    # the zero-exponent system on the semi-axis rule, relative to 1/(2k)
    rule = _once(exppoly.semi_axis_rule, n)
    members = exppoly.member_values(0, 0, n, [math.exp(-t) for t in rule.nodes])
    gram = (members * rule.weights) @ members.T
    return max(abs(gram[k - 1, l - 1] - (1 / (2 * k) if k == l else 0.0)) * 2 * k
               for k, l in _upper(n))


def _a_exponential_norms(n):
    # unweighted semi-axis integrals pull back to the 1/x inner products
    integral = quad.integrate_semi_axis
    got = ([integral(_a(n, k) * _a(n, l), 0, 0) for k, l in _upper(n)]
           + [integral(_a(n, k), 0, 0) for k in range(1, n + 1)])
    want = ([F(1, 2 * k) if k == l else 0 for k, l in _upper(n)]
            + [F(1, k) for k in range(1, n + 1)])
    return got, want


def _t_exponential_norms(n):
    # the T exponential weight is the (-1/2, -1/2) semi-axis weight
    integral, half = quad.integrate_semi_axis, F(-1, 2)
    got = ([integral(_t(n, k) * _t(n, l), half, half) for k, l in _upper(n)]
           + [integral(_t(n, k), half, half) for k in range(1, n + 1)])
    want = ([_t_norm_formula(n, k, l) for k, l in _upper(n)]
            + [_t_integral_formula(n, k) for k in range(1, n + 1)])
    return got, want


# ------------------------------------------------------------- zfun checks

def _search_permutation():
    base = list(zfun.whole_candidates(10))
    shuffled = base[::2] + base[1::2]
    return zfun.z_search(1, 0, base), zfun.z_search(1, 0, shuffled[::-1])


def _z_system(n, omega):
    return zfun.z_build(n, omega, zfun.whole_candidates(64))


def _z_grid(top):
    return ((n, omega) for omega in (F(0), F(1, 2), F(1)) for n in range(1, top + 1))


def _z_endpoint(n, omega):
    spec = _once(_z_system, n, omega)
    nodes = spec.collocation_nodes()
    inside = (len(nodes) == n + 1 and all(0 < t <= 1 + 1e-12 for t in nodes[1:])
              and spec.gamma_n <= 1 + 1e-12)
    return abs(spec.associated_eval(1.0)) if inside else math.inf


def _z_scaling(n, omega):
    # the member at t = 1 against the exact member at x = exp(-gamma),
    # rounded once: an oracle independent of member_values
    spec = _once(_z_system, n, omega)
    sys = exppoly.ExpPolySystem(spec.alpha_n, spec.beta_n, n)
    x = F(math.exp(-(spec.gamma_n if spec.scaled else 1.0)))
    return max(abs(spec.member_eval(k, 1.0) - float(sys.member_poly(k)(x)))
               for k in range(1, n + 1))


# -------------------------------------------------------------------- table

ROWS = [
    # core: the alternative family at integer and half-integer weights
    Row("monomial-orthogonality", "core", ABNKL,
        lambda top: ((a, b, n, k, l) for a, b, n, k in _nk(INT2, top, 1)
                     for l in range(k + 1, n + 1)),
        lambda a, b, n, k, l: (quad.weighted_inner_product(
            _member(a, b, n, k), DensePoly.monomial(l), a, b), 0), cap=10),
    Row("orthogonality-exact", "core", ABNKL, lambda top: _nkl(INT2, top),
        _orthogonality, cap=10),
    Row("orthogonality-half-integer", "core", ABNKL, lambda top: _nkl(_pairs(HALF, HALF), top),
        _orthogonality, cap=10),
    Row("shift-invariance", "core", ABNK + ("p",),
        lambda top: ((a, b, n, k, p) for a, b in INT2 for p in (1, 2)
                     for n in range(top + 1) for k in range(n + 1)),
        _shift_invariance, cap=6),
    Row("composition-identity", "core", ABNK, lambda top: _nk(INT2, top),
        lambda a, b, n, k: (_member(a, b, n, k), polycore.shifted_jacobi_coefficients(
            n - k, a + 2 * k + 1, b).shift_up(k)), cap=8),
    Row("differentiation-formula", "core", ABNK,
        lambda top: (p for p in _nk(_pairs(INT + (F(5, 2),), INT), top) if p[3] < p[2]),
        lambda a, b, n, k: (polycore.diff_formula_residual(PolyParams(a, b, n, k)), ZERO),
        cap=8),
    Row("diff-difference-raising", "core", ABNK, lambda top: _nk(INT2, top),
        lambda a, b, n, k: (polycore.dd_raising_residual(PolyParams(a, b, n, k)), ZERO),
        cap=8),
    Row("diff-difference-lowering", "core", ABNK,
        lambda top: (p for p in _nk(INT2, top) if p[3] >= 1),
        lambda a, b, n, k: (polycore.dd_lowering_residual(PolyParams(a, b, n, k)), ZERO),
        cap=8),
    Row("ode-residual", "core", ABNK, lambda top: _nk(INT2, top),
        lambda a, b, n, k: (polycore.ode_residual_poly(PolyParams(a, b, n, k)), ZERO), cap=8),
    Row("endpoint-sign", "core", ABNK, lambda top: _nk(INT2, top),
        lambda a, b, n, k: (polycore.endpoint_sign(PolyParams(a, b, n, k)), (-1) ** (n - k)),
        cap=8),
    Row("endpoint-value", "core", ABNK, lambda top: _nk(_pairs(INT, (F(0),)), top),
        lambda a, b, n, k: (polycore.ajp_eval(PolyParams(a, b, n, k), F(1)), (-1) ** (n - k)),
        cap=8),
    Row("direct-sign", "core", ABNK, _direct_grid, _direct_sign, cap=4),
    Row("direct-orthogonality", "core", ABNKL,
        lambda top: ((a, b, n, k, l) for a, b, n, k in _direct_grid(top)
                     for l in range(k, n + 4)),
        _direct_orthogonality, cap=4),
    Row("direct-pointwise", "core", ABNK, _direct_grid, _direct_pointwise, tol=1e-12, cap=4),
    Row("reciprocity", "core", ABNK, lambda top: _nk(INT2, top),
        lambda a, b, n, k: (_member(a, b, n, k),
                            polycore.reciprocity_coefficients(a, b, n, k)), cap=8),
    Row("recurrence-vs-expansion", "core", ABN,
        lambda top: ((a, b, n) for a, b in INT2 for n in range(1, top + 1)),
        _recurrence, cap=15),
    Row("recurrence-vs-expansion-float", "core", ABN,
        lambda top: ((a, b, n) for a, b in ((0.5, 0.5), (1.25, 0.75))
                     for n in range(1, top + 1)),
        # the float members against the exact recurrence, each rounded once
        lambda a, b, n: (polycore.ajp_recurrence(a, b, n),
                         [p.to_floats() for p in polycore.ajp_recurrence(F(a), F(b), n)]),
        cap=12),

    # quad: Beta moments, Gauss-Jacobi rules and the semi-axis pullback
    Row("beta-moment-symmetry", "quad", ("a", "b"), lambda _top: QUAD_PAIRS,
        lambda a, b: (quad.beta_moment(a, b), quad.beta_moment(b, a))),
    Row("rule-weight-sum", "quad", ("a", "b", "m"), _rule_grid, _weight_sum, tol=1e-12),
    Row("rule-monomial-exactness", "quad", ("a", "b", "m"), _rule_grid, _monomial_exactness,
        tol=1e-12),
    Row("inner-product-vs-quadrature", "quad", ("n", "k", "l"),
        lambda top: ((n, k, l) for n in range(1, top + 1) for k in range(n + 1)
                     for l in range(k, n + 1)),
        _inner_product_vs_quadrature, tol=1e-10, cap=6),
    Row("semi-axis-transform", "quad", ("n",), lambda _top: _ns(3), _semi_axis_transform,
        tol=1e-10),
    Row("float-member-values", "quad", ("family",) + ABN, _float_member_grid,
        _float_member_values, tol=1e-13),

    # marginal: the A (1/x weight) and T (Chebyshev-type weight) families
    Row("a-recurrence-vs-expansion", "marginal", ("n",), _ns,
        lambda n: (marginal.a_recurrence(n),
                   [marginal.a_coefficients(n, k) for k in range(n, -1, -1)]), cap=12),
    Row("a-is-family-member", "marginal", ("n", "k"), _tri,
        lambda n, k: (_a(n, k), _a_expansion(n, k)), cap=12),
    Row("a-singular-is-shifted-legendre", "marginal", ("n",), _ns,
        lambda n: (marginal.a_coefficients(n, 0), shifted_legendre_coefficients(n)), cap=10),
    Row("t-singular-is-shifted-chebyshev", "marginal", ("n",), _ns,
        lambda n: (marginal.t_coefficients(n, 0), shifted_chebyshev_coefficients(n)), cap=10),
    Row("t-recurrence-vs-scaled-family", "marginal", ("n",), _ns,
        lambda n: (marginal.t_recurrence(n),
                   [marginal.t_coefficients(n, k) for k in range(n, -1, -1)]), cap=10),
    Row("a-differential-relations", "marginal", ("n", "k"), _tri, _a_relations, cap=8),
    Row("t-ode", "marginal", ("n", "k"), _tri,
        lambda n, k: (polycore.ode_apply(*T_WEIGHT, n, k, _t(n, k)), ZERO), cap=8),
    Row("a-orthogonality", "marginal", ("n", "k", "l"), _norm_grid, _a_orthogonality, cap=8),
    Row("t-orthogonality", "marginal", ("n", "k", "l"), _norm_grid, _t_orthogonality, cap=8),
    Row("a-single-integral", "marginal", ("n", "k"), lambda top: _tri(top, 1),
        _a_single_integral, cap=8),
    Row("t-single-integral", "marginal", ("n", "k"), lambda top: _tri(top, 1),
        _t_single_integral, cap=8),

    # exp: the exponential systems on the semi-axis and their rules
    Row("substitution-consistency", "exp", ("alpha", "beta", "k"),
        lambda _top: ((a, b, k) for a, b in ((F(1), F(0)), (F(2), F(1))) for k in range(4)),
        _substitution, tol=1e-14),
    Row("semi-axis-orthogonality", "exp", ABNKL,
        lambda top: ((a, b, n, k, l) for a in (1, 2, 3) for b in (0, 1, 2)
                     for n in range(1, top + 1) for k, l in _upper(n)),
        _semi_axis_orthogonality, cap=8),
    Row("zero-set", "exp", ABN,
        lambda top: ((a, b, n) for a, b in ((F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2)),
                                            (F(2), F(1)))
                     for n in range(1, top + 1)),
        _zero_set, tol=1e-13, cap=8),
    Row("gauss-type-rule", "exp", ("n",), _ns, _gauss_type_rule, tol=1e-9, cap=8),
    Row("semi-axis-rule-exactness", "exp", ("n",), _ns, _semi_axis_exactness, tol=1e-9, cap=8),
    Row("discrete-orthogonality", "exp", ("n",), _ns, _discrete_orthogonality, tol=1e-9,
        cap=8),
    Row("exp-derivative-relation", "exp", ("n", "k"), lambda top: _tri(top, 1),
        lambda n, k: max(abs(exppoly.ea_derivative_relation_residual(n, k, t))
                         for t in (0.0, 0.4, 2.0)), tol=1e-13, cap=8),
    Row("a-exponential-norms", "exp", ("n",), _ns, _a_exponential_norms, cap=6),
    Row("t-exponential-norms", "exp", ("n",), _ns, _t_exponential_norms, cap=6),

    # zfun: largest zeros, the exponent search and the built Z systems
    Row("lambda-closed-form", "zfun", ("alpha",),
        lambda _top: ((a,) for a in (F(0), F(1, 2), F(1), F(2), F(5))),
        lambda a: abs(zfun.lambda_max(a, 0, 1) - math.log(float((a + 2) / (a + 1)))),
        tol=1e-12),
    Row("search-permutation-determinism", "zfun", (), lambda _top: [()], _search_permutation),
    Row("z-system-endpoint", "zfun", ("n", "omega"), _z_grid, _z_endpoint, tol=1e-9, cap=5),
    Row("z-scaling-consistency", "zfun", ("n", "omega"), _z_grid, _z_scaling, tol=1e-12,
        cap=5),
]

ROW = {row.name: row for row in ROWS}
SUITES = ("core", "quad", "marginal", "exp", "zfun")


class NoChecksError(ValueError):
    """A suite or row ran no checks at the requested n; nothing was verified."""


def _record(rec: Recorder, row: Row, top: int) -> int:
    """Run row's grid up to top into rec; returns the number of points run."""
    count = 0
    for count, point in enumerate(row.grid(top), 1):
        try:
            ok, detail = row.judge(point)
        except Exception as exc:    # a check that raises has failed
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not ok:
            params = {key: str(v) if isinstance(v, Fraction) else v
                      for key, v in zip(row.keys, point)}
            rec.failures.append({"name": row.name, "params": params, "detail": detail})
    rec.total += count
    return count


def run_suite(name: str, nmax: int = 8) -> dict:
    """Run one suite (or 'all') and return the JSON-ready summary.

    Raises NoChecksError when a requested suite (each one, under 'all') runs
    no checks at this nmax: a check that ran nothing is not a pass.
    """
    if name == "all":
        names = SUITES
    elif name in SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}")
    rec = Recorder()
    try:
        for suite in names:
            if not sum(_record(rec, row, row.top(nmax)) for row in ROWS if row.suite == suite):
                raise NoChecksError(f"suite {suite} runs no checks at --nmax {nmax}")
    finally:
        _shared.clear()
    return {"suite": name, "nmax": nmax, **rec.summary()}


def run_rows(ranges: dict) -> dict:
    """Run each named row up to its given top index, the row's cap aside, and
    return the summary (total, passed, failed, failures). Raises
    NoChecksError when a row runs no checks at its index."""
    rec = Recorder()
    try:
        for name, top in ranges.items():
            if not _record(rec, ROW[name], top):
                raise NoChecksError(f"row {name} runs no checks at n = {top}")
    finally:
        _shared.clear()
    return rec.summary()
