"""Named verification suites aggregating every module invariant.

Each check appends a record (name, params, ok, detail); the CLI `verify`
subcommand renders the summary as JSON and exits nonzero if anything failed.
Exact identities are asserted with equality on rationals (or rational
multiples of pi); floating checks carry the tolerances stated with them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import exppoly, marginal, polycore, quad, zfun
from .poly import DensePoly
from .polycore import PolyParams

EXACT_WEIGHTS = [Fraction(a) for a in (0, 1, 2)]
HALF_WEIGHTS = [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]


class Recorder:
    def __init__(self):
        self.checks = []

    def add(self, name: str, params: dict, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "params": params, "ok": bool(ok),
                            "detail": detail})

    def summary(self, suite: str, nmax: int) -> dict:
        failed = [c for c in self.checks if not c["ok"]]
        return {
            "suite": suite,
            "nmax": nmax,
            "total": len(self.checks),
            "passed": len(self.checks) - len(failed),
            "failed": len(failed),
            "failures": [
                {"name": c["name"], "params": c["params"], "detail": c["detail"]}
                for c in failed
            ],
        }


def _member(alpha, beta, n, k):
    return polycore.ajp_coefficients(PolyParams(alpha, beta, n, k))


def _norm_ratio(value, scale) -> float:
    s = float(scale)
    return abs(float(value)) / s if s else abs(float(value))


# ---------------------------------------------------------------- core suite

def suite_core(rec: Recorder, nmax: int):
    _core_monomial_orthogonality(rec, min(nmax, 10))
    _core_orthogonality_exact(rec, min(nmax, 10))
    _core_orthogonality_halfint(rec, min(nmax, 10))
    _core_shift_invariance(rec, min(nmax, 6))
    _core_identities(rec, min(nmax, 8))
    _core_direct_family(rec, min(nmax, 8))
    _core_reciprocity(rec, min(nmax, 8))
    _core_recurrence_matches_expansion(rec, min(nmax, 15))


def _core_monomial_orthogonality(rec, nmax):
    for a in EXACT_WEIGHTS:
        for b in EXACT_WEIGHTS:
            for n in range(1, nmax + 1):
                for k in range(0, n):
                    member = _member(a, b, n, k)
                    for l in range(k + 1, n + 1):
                        ip = quad.weighted_inner_product(
                            member, DensePoly.monomial(l), a, b)
                        rec.add("monomial-orthogonality",
                                {"alpha": str(a), "beta": str(b), "n": n,
                                 "k": k, "l": l},
                                ip == 0, f"got {ip}")


def _core_orthogonality_exact(rec, nmax):
    for a in EXACT_WEIGHTS:
        for b in EXACT_WEIGHTS:
            for n in range(0, nmax + 1):
                members = [_member(a, b, n, k) for k in range(n + 1)]
                for k in range(n + 1):
                    for l in range(k, n + 1):
                        ip = quad.weighted_inner_product(members[k], members[l], a, b)
                        if k == l:
                            expect = polycore.ajp_norm_h(PolyParams(a, b, n, k))
                        else:
                            expect = Fraction(0)
                        rec.add("orthogonality-exact",
                                {"alpha": str(a), "beta": str(b), "n": n,
                                 "k": k, "l": l},
                                ip == expect, f"got {ip}, want {expect}")


def _core_orthogonality_halfint(rec, nmax):
    # half-integer exponents route through the exact pi-rational arithmetic;
    # the stated normalized tolerance is checked on the float values
    for a in HALF_WEIGHTS:
        for b in HALF_WEIGHTS:
            for n in range(1, nmax + 1):
                members = {}
                norms = {}
                for k in range(n + 1):
                    p = PolyParams(a, b, n, k)
                    if float(a) + 2 * k + 1 <= 0:
                        continue
                    members[k] = _member(a, b, n, k)
                    norms[k] = polycore.ajp_norm_h(p)
                for k in sorted(members):
                    for l in sorted(members):
                        if l < k:
                            continue
                        ip = quad.weighted_inner_product(members[k], members[l], a, b)
                        if k == l:
                            rel = abs(float(ip) - float(norms[k])) / float(norms[k])
                            ok = rel < 1e-10
                            detail = f"diagonal rel err {rel:.3g}"
                        else:
                            ratio = _norm_ratio(ip, math.sqrt(float(norms[k]) * float(norms[l])))
                            ok = ratio < 1e-10
                            detail = f"normalized off-diagonal {ratio:.3g}"
                        rec.add("orthogonality-half-integer",
                                {"alpha": str(a), "beta": str(b), "n": n,
                                 "k": k, "l": l}, ok, detail)


def _core_shift_invariance(rec, nmax):
    for a in EXACT_WEIGHTS:
        for b in EXACT_WEIGHTS:
            for p_shift in (1, 2):
                for n in range(0, nmax + 1):
                    for k in range(0, n + 1):
                        base = _member(a, b, n, k)
                        shifted = _member(a - 2 * p_shift, b, n + p_shift, k + p_shift)
                        ok = base.shift_up(p_shift) == shifted
                        h1 = polycore.ajp_norm_h(PolyParams(a, b, n, k))
                        h2 = polycore.ajp_norm_h(
                            PolyParams(a - 2 * p_shift, b, n + p_shift, k + p_shift))
                        rec.add("shift-invariance",
                                {"alpha": str(a), "beta": str(b), "n": n, "k": k,
                                 "p": p_shift},
                                ok and h1 == h2,
                                "coefficient or norm mismatch" if not (ok and h1 == h2) else "")


def _core_identities(rec, nmax):
    for a in EXACT_WEIGHTS:
        for b in EXACT_WEIGHTS:
            for n in range(0, nmax + 1):
                for k in range(0, n + 1):
                    params = PolyParams(a, b, n, k)
                    member = _member(a, b, n, k)
                    # lower-index composition: member = x^k * shifted Jacobi
                    composed = polycore.shifted_jacobi_coefficients(
                        n - k, a + 2 * k + 1, b).shift_up(k)
                    rec.add("composition-identity",
                            {"alpha": str(a), "beta": str(b), "n": n, "k": k},
                            member == composed, "")
                    if k == 0:
                        sub = polycore.shifted_jacobi_coefficients(n, a + 1, b)
                        rec.add("classical-subset",
                                {"alpha": str(a), "beta": str(b), "n": n},
                                member == sub, "")
                    if k < n:
                        res = polycore.diff_formula_residual(params)
                        rec.add("differentiation-formula",
                                {"alpha": str(a), "beta": str(b), "n": n, "k": k},
                                res.is_zero, str(res))
                    res1 = polycore.dd_raising_residual(params)
                    rec.add("diff-difference-raising",
                            {"alpha": str(a), "beta": str(b), "n": n, "k": k},
                            res1.is_zero, str(res1))
                    if k >= 1:
                        res2 = polycore.dd_lowering_residual(params)
                        rec.add("diff-difference-lowering",
                                {"alpha": str(a), "beta": str(b), "n": n, "k": k},
                                res2.is_zero, str(res2))
                    ode = polycore.ode_residual_poly(params)
                    rec.add("ode-residual",
                            {"alpha": str(a), "beta": str(b), "n": n, "k": k},
                            ode.is_zero, str(ode))
                    sign = polycore.endpoint_sign(params)
                    want = (-1) ** (n - k)
                    ok = sign == want
                    if b == 0:
                        ok = ok and polycore.ajp_eval(params, Fraction(1)) == want
                    rec.add("endpoint-sign",
                            {"alpha": str(a), "beta": str(b), "n": n, "k": k},
                            ok, f"sign {sign}, want {want}")


def _core_direct_family(rec, nmax):
    for a in EXACT_WEIGHTS:
        for b in EXACT_WEIGHTS:
            for n in range(0, min(nmax, 4) + 1):
                polys = {k: polycore.direct_coefficients(a, b, n, k)
                         for k in range(n, n + 4)}
                for k, pk in polys.items():
                    # sign characterization at x = 1
                    v = pk(Fraction(1))
                    ok_sign = (v > 0) - (v < 0) == (-1) ** (k - n)
                    rec.add("direct-sign",
                            {"alpha": str(a), "beta": str(b), "n": n, "k": k},
                            ok_sign, f"value at 1: {v}")
                    for l, pl in polys.items():
                        if l < k:
                            continue
                        ip = quad.weighted_inner_product(pk, pl, a, b)
                        expect = polycore.direct_norm_d(a, b, n, k) if k == l else Fraction(0)
                        rec.add("direct-orthogonality",
                                {"alpha": str(a), "beta": str(b), "n": n,
                                 "k": k, "l": l},
                                ip == expect, f"got {ip}, want {expect}")
                    # pointwise route comparison on a uniform grid
                    worst = 0.0
                    for i in range(33):
                        x = i / 32
                        direct = float(pk(x))
                        via_jacobi = x ** n * float(
                            polycore.shifted_jacobi(k - n, a + 2 * n, b, x))
                        worst = max(worst, abs(direct - via_jacobi))
                    rec.add("direct-pointwise",
                            {"alpha": str(a), "beta": str(b), "n": n, "k": k},
                            worst < 1e-12, f"max abs {worst:.3g}")


def _core_reciprocity(rec, nmax):
    for a in EXACT_WEIGHTS:
        for b in EXACT_WEIGHTS:
            for n in range(0, nmax + 1):
                for k in range(0, n + 1):
                    member = _member(a, b, n, k)
                    rebuilt = polycore.reciprocity_coefficients(a, b, n, k)
                    rec.add("reciprocity",
                            {"alpha": str(a), "beta": str(b), "n": n, "k": k},
                            member == rebuilt, "")


def _core_recurrence_matches_expansion(rec, nmax):
    for a in EXACT_WEIGHTS:
        for b in EXACT_WEIGHTS:
            for n in range(1, nmax + 1):
                seq = polycore.ajp_recurrence(a, b, n)
                ok = all(seq[n - k] == _member(a, b, n, k) for k in range(n, -1, -1))
                rec.add("recurrence-vs-expansion",
                        {"alpha": str(a), "beta": str(b), "n": n}, ok, "")
    for af, bf in ((0.5, 0.5), (1.25, 0.75)):
        for n in range(1, min(nmax, 12) + 1):
            seq = polycore.ajp_recurrence(af, bf, n)
            worst = 0.0
            for k in range(n, -1, -1):
                ref = _member(af, bf, n, k)
                got = seq[n - k]
                ref_scale = max(abs(c) for c in ref.coeffs)
                for i in range(n + 1):
                    gc = got.coeffs[i] if i < len(got.coeffs) else 0.0
                    rc = ref.coeffs[i] if i < len(ref.coeffs) else 0.0
                    worst = max(worst, abs(gc - rc) / ref_scale)
            rec.add("recurrence-vs-expansion-float",
                    {"alpha": af, "beta": bf, "n": n},
                    worst < 1e-9, f"worst rel {worst:.3g}")


# ---------------------------------------------------------------- quad suite

def suite_quad(rec: Recorder, nmax: int):
    pairs = [Fraction(0), Fraction(1, 2), Fraction(-1, 2)]
    for a in pairs:
        for b in pairs:
            bm_ab = quad.beta_moment(a, b)
            bm_ba = quad.beta_moment(b, a)
            rec.add("beta-moment-symmetry", {"a": str(a), "b": str(b)},
                    bm_ab == bm_ba, f"{bm_ab} vs {bm_ba}")
            for m in (1, 2, 5, 12, 20):
                rule = quad.gauss_jacobi_rule(m, a, b)
                sw = sum(rule.weights)
                ok = abs(sw - float(bm_ab)) <= 1e-12 * abs(float(bm_ab))
                rec.add("rule-weight-sum", {"a": str(a), "b": str(b), "m": m},
                        ok, f"sum {sw!r}")
                worst = 0.0
                for j in range(0, 2 * m):
                    approx = quad.integrate_unit(lambda x: x ** j, rule)
                    exact_val = float(quad.beta_moment(a + j, b))
                    worst = max(worst, abs(approx - exact_val) / exact_val)
                rec.add("rule-monomial-exactness",
                        {"a": str(a), "b": str(b), "m": m},
                        worst < 1e-12, f"worst rel {worst:.3g}")
    # inner product vs quadrature agreement on family members
    for n in range(1, min(nmax, 6) + 1):
        for k in range(n + 1):
            for l in range(k, n + 1):
                member_k = _member(Fraction(0), Fraction(1), n, k)
                member_l = _member(Fraction(0), Fraction(1), n, l)
                exact_ip = quad.weighted_inner_product(member_k, member_l,
                                                       Fraction(0), Fraction(1))
                rule = quad.gauss_jacobi_rule(n + 1, 0.0, 1.0)
                approx = quad.integrate_unit(
                    lambda x: float(member_k(x)) * float(member_l(x)), rule)
                ok = abs(approx - float(exact_ip)) < 1e-10
                rec.add("inner-product-vs-quadrature",
                        {"n": n, "k": k, "l": l}, ok,
                        f"{approx!r} vs {float(exact_ip)!r}")
    # semi-axis transform: numeric route vs exact pullback for polynomials
    for n in (1, 2, 3):
        member = _member(Fraction(0), Fraction(0), n, 1)
        exact_val = quad.integrate_semi_axis(member * member, 1, 0)
        numeric = quad.integrate_semi_axis(
            lambda t: float(member(math.exp(-t))) ** 2, 1.0, 0.0, m=2 * n + 8)
        ok = abs(numeric - float(exact_val)) < 1e-10
        rec.add("semi-axis-transform", {"n": n}, ok,
                f"{numeric!r} vs {float(exact_val)!r}")


# ------------------------------------------------------------ marginal suite

def suite_marginal(rec: Recorder, nmax: int):
    neg1 = Fraction(-1)
    zero = Fraction(0)
    for n in range(1, min(nmax, 12) + 1):
        seq = marginal.a_recurrence(n)
        ok_all = True
        for k in range(n, -1, -1):
            expansion = marginal.a_coefficients(n, k)
            family = _member(neg1, zero, n, k)
            if not (expansion == seq[n - k] == family):
                ok_all = False
        rec.add("a-three-routes-agree", {"n": n}, ok_all, "")
    for n in range(1, min(nmax, 10) + 1):
        ok = marginal.a_coefficients(n, 0) == marginal.shifted_legendre_coefficients(n)
        rec.add("a-singular-is-shifted-legendre", {"n": n}, ok, "")
        ok_t = marginal.t_coefficients(n, 0) == marginal.shifted_chebyshev_coefficients(n)
        rec.add("t-singular-is-shifted-chebyshev", {"n": n}, ok_t, "")
    for n in range(1, min(nmax, 10) + 1):
        rec_seq = marginal.t_recurrence(n)
        ok = all(rec_seq[n - k] == marginal.t_coefficients(n, k)
                 for k in range(n, -1, -1))
        rec.add("t-recurrence-vs-scaled-family", {"n": n}, ok, "")
    # differential relations and ODEs in the marginal regime
    for n in range(1, min(nmax, 8) + 1):
        for k in range(0, n + 1):
            params = PolyParams(neg1, zero, n, k)
            ok1 = polycore.dd_raising_residual(params).is_zero
            ok2 = k == 0 or polycore.dd_lowering_residual(params).is_zero
            ok3 = polycore.ode_residual_poly(params).is_zero
            rec.add("a-differential-relations", {"n": n, "k": k},
                    ok1 and ok2 and ok3, "")
            t_member = marginal.t_coefficients(n, k)
            res = polycore.ode_apply(Fraction(-3, 2), Fraction(-1, 2), n, k, t_member)
            rec.add("t-ode", {"n": n, "k": k}, res.is_zero, "")
    # orthogonality values against the Beta-moment oracle
    for n in range(1, min(nmax, 8) + 1):
        a_members = [marginal.a_coefficients(n, k) for k in range(n + 1)]
        t_members = [marginal.t_coefficients(n, k) for k in range(n + 1)]
        for k in range(0, n + 1):
            for l in range(max(k, 1), n + 1):
                oracle = quad.weighted_inner_product(a_members[k], a_members[l],
                                                     neg1, zero)
                stated = marginal.a_norm(n, k, l)
                rec.add("a-orthogonality", {"n": n, "k": k, "l": l},
                        oracle == stated, f"oracle {oracle}, stated {stated}")
                oracle_t = quad.weighted_inner_product(
                    t_members[k], t_members[l], Fraction(-3, 2), Fraction(-1, 2))
                stated_t = marginal.t_norm(n, k, l)
                ok_exact = oracle_t == stated_t
                ft, fo = float(stated_t), float(oracle_t)
                ok_float = abs(fo - ft) <= 1e-12 * max(abs(ft), 1e-30)
                rec.add("t-orthogonality", {"n": n, "k": k, "l": l},
                        ok_exact and ok_float,
                        f"oracle {oracle_t}, stated {stated_t}")
            if k >= 1:
                oracle = quad.weighted_inner_product(a_members[k], DensePoly.one(),
                                                     neg1, zero)
                rec.add("a-single-integral", {"n": n, "k": k},
                        oracle == marginal.a_single_integral(n, k),
                        f"oracle {oracle}")
                oracle_t = quad.weighted_inner_product(
                    t_members[k], DensePoly.one(), Fraction(-3, 2), Fraction(-1, 2))
                stated_t = marginal.t_single_integral(n, k)
                rec.add("t-single-integral", {"n": n, "k": k},
                        oracle_t == stated_t,
                        f"oracle {oracle_t}, stated {stated_t}")


# ----------------------------------------------------------------- exp suite

def suite_exp(rec: Recorder, nmax: int):
    nmax = min(nmax, 8)
    # substitution consistency
    for (a, b) in ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(1))):
        sys = exppoly.ExpPolySystem(a, b, 3)
        for k in range(0, 4):
            worst = 0.0
            for t in (0.0, 0.3, 1.7):
                via_e = exppoly.e_eval(sys, k, t)
                via_p = polycore.ajp_eval(PolyParams(a - 1, b, 3, k), math.exp(-t))
                worst = max(worst, abs(via_e - float(via_p)))
            rec.add("substitution-consistency",
                    {"alpha": str(a), "beta": str(b), "k": k},
                    worst == 0.0, f"max abs {worst:.3g}")
    # orthogonality on the semi-axis, exact for whole exponents
    for a in (1, 2, 3):
        for b in (0, 1):
            for n in range(1, nmax + 1):
                sys = exppoly.ExpPolySystem(a, b, n)
                for k in range(1, n + 1):
                    for l in range(k, n + 1):
                        prod = sys.member_poly(k) * sys.member_poly(l)
                        got = quad.integrate_semi_axis(prod, a, b)
                        want = exppoly.e_norm(sys, k) if k == l else Fraction(0)
                        rec.add("semi-axis-orthogonality",
                                {"alpha": a, "beta": b, "n": n, "k": k, "l": l},
                                got == want, f"got {got}, want {want}")
    # zero sets
    for n in range(1, nmax + 1):
        zs = exppoly.e_zeros(1, 0, n)
        ok = (len(zs.lambdas) == n
              and all(l > 0 for l in zs.lambdas)
              and all(zs.lambdas[i] < zs.lambdas[i + 1] for i in range(n - 1))
              and max(zs.residuals) < 1e-13)
        rec.add("zero-set", {"alpha": 1, "beta": 0, "n": n}, ok,
                f"max residual {max(zs.residuals):.3g}")
    rec.add("zero-closed-form-ln2", {},
            abs(exppoly.e_zeros(0, 0, 1).lambdas[0] - math.log(2)) < 1e-12, "")
    # quadrature exactness and the missing constant
    for n in range(1, nmax + 1):
        rule = exppoly.legendre_type_quadrature(n)
        worst = 0.0
        for m in range(1, 2 * n + 1):
            s = sum(w * x ** m for x, w in zip(rule.nodes, rule.weights))
            worst = max(worst, abs(s - 1 / (m + 1)) * (m + 1))
        sum_w = sum(rule.weights)
        ok = worst < 1e-9 and abs(sum_w - 1) > 1e-3
        rec.add("gauss-type-rule", {"n": n}, ok,
                f"worst rel {worst:.3g}, weight sum {sum_w!r}")
        semi = exppoly.semi_axis_rule(n)
        worst_semi = 0.0
        for m in range(2, 2 * n + 2):
            s = sum(v * math.exp(-m * t) for t, v in zip(semi.nodes, semi.weights))
            worst_semi = max(worst_semi, abs(s - 1 / m) * m)
        rec.add("semi-axis-rule-exactness", {"n": n},
                worst_semi < 1e-9, f"worst rel {worst_semi:.3g}")
        # discrete orthogonality of the zero-exponent system
        syse = exppoly.ExpPolySystem(0, 0, n)
        members = [syse.member_poly(k).to_floats() for k in range(n + 1)]
        worst_disc = 0.0
        for k in range(1, n + 1):
            for l in range(k, n + 1):
                s = sum(v * members[k](math.exp(-t)) * members[l](math.exp(-t))
                        for t, v in zip(semi.nodes, semi.weights))
                want = 1 / (2 * k) if k == l else 0.0
                scale = 1 / (2 * k)
                worst_disc = max(worst_disc, abs(s - want) / scale)
        rec.add("discrete-orthogonality", {"n": n},
                worst_disc < 1e-9, f"worst rel {worst_disc:.3g}")
    # derivative relation of the zero-exponent exponential system
    for n in range(1, nmax + 1):
        for k in range(1, n + 1):
            worst = max(abs(exppoly.ea_derivative_relation_residual(n, k, t))
                        for t in (0.0, 0.4, 2.0))
            rec.add("exp-derivative-relation", {"n": n, "k": k},
                    worst < 1e-12, f"max abs {worst:.3g}")
    # exponential-form marginal norms pull back exactly
    half = Fraction(-1, 2)
    for n in range(1, min(nmax, 6) + 1):
        ok_a = all(
            quad.integrate_semi_axis(
                marginal.a_coefficients(n, k) * marginal.a_coefficients(n, l), 0, 0)
            == (Fraction(1, 2 * k) if k == l else 0)
            for k in range(1, n + 1) for l in range(k, n + 1))
        ok_a = ok_a and all(
            quad.integrate_semi_axis(marginal.a_coefficients(n, k), 0, 0)
            == Fraction(1, k) for k in range(1, n + 1))
        rec.add("a-exponential-norms", {"n": n}, ok_a, "")
        ok_t = all(
            quad.integrate_semi_axis(
                marginal.t_coefficients(n, k) * marginal.t_coefficients(n, l),
                half, half) == marginal.t_norm(n, k, l)
            for k in range(1, n + 1) for l in range(k, n + 1))
        ok_t = ok_t and all(
            quad.integrate_semi_axis(marginal.t_coefficients(n, k), half, half)
            == marginal.t_single_integral(n, k) for k in range(1, n + 1))
        rec.add("t-exponential-norms", {"n": n}, ok_t, "")


# ---------------------------------------------------------------- zfun suite

def suite_zfun(rec: Recorder, nmax: int):
    nmax = min(nmax, 5)
    for a in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
        lam = zfun.lambda_max(a, 0, 1)
        closed = math.log(float((a + 2) / (a + 1)))
        rec.add("lambda-closed-form", {"alpha": str(a)},
                abs(lam - closed) < 1e-12, f"{lam!r} vs {closed!r}")
    base = list(zfun.whole_candidates(10))
    shuffled = base[::2] + base[1::2]
    r1 = zfun.z_search(1, 0, base)
    r2 = zfun.z_search(1, 0, shuffled[::-1])
    rec.add("search-permutation-determinism", {}, r1 == r2, f"{r1} vs {r2}")
    for omega in (Fraction(0), Fraction(1, 2), Fraction(1)):
        for n in range(1, nmax + 1):
            spec = zfun.z_build(n, omega, zfun.whole_candidates(64))
            endpoint = abs(spec.associated_eval(1.0))
            nodes = spec.collocation_nodes()[1:]
            ok = (endpoint < 1e-9
                  and all(0 < t <= 1 + 1e-12 for t in nodes)
                  and spec.gamma_n <= 1 + 1e-12)
            rec.add("z-system-endpoint", {"n": n, "omega": str(omega)},
                    ok, f"|Z_n0(1)| = {endpoint:.3g}")
            worst = 0.0
            sys = exppoly.ExpPolySystem(spec.alpha_n, spec.beta_n, n)
            for k in range(1, n + 1):
                lhs = spec.member_eval(k, 1.0)
                rhs = exppoly.e_eval(sys, k, spec.gamma_n if spec.scaled else 1.0)
                worst = max(worst, abs(lhs - rhs))
            rec.add("z-scaling-consistency", {"n": n, "omega": str(omega)},
                    worst < 1e-12, f"max abs {worst:.3g}")


SUITES = {
    "core": suite_core,
    "quad": suite_quad,
    "marginal": suite_marginal,
    "exp": suite_exp,
    "zfun": suite_zfun,
}


class NoChecksError(ValueError):
    """A suite ran no checks at the requested nmax; nothing was verified."""


def run_suite(name: str, nmax: int = 8) -> dict:
    """Run one suite (or 'all') and return the JSON-ready summary.

    Raises NoChecksError when a requested suite (each one, under 'all') runs
    no checks at this nmax: a check that ran nothing is not a pass.
    """
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    rec = Recorder()
    for suite in names:
        before = len(rec.checks)
        SUITES[suite](rec, nmax)
        if len(rec.checks) == before:
            raise NoChecksError(f"suite {suite} runs no checks at --nmax {nmax}")
    return rec.summary(name, nmax)
