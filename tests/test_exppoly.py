import math
from fractions import Fraction

import pytest

from altpoly import quad, verify, zfun
from altpoly.errors import CoefficientOverflowError, DivergenceError, RootFindingError
from altpoly.exppoly import (
    ExpPolySystem,
    ZeroSet,
    e_eval,
    e_norm,
    e_zeros,
    ea_eval,
    et_eval,
    guarded_zero_set,
    legendre_type_quadrature,
    project,
    semi_axis_rule,
)
from altpoly.polycore import PolyParams, ajp_coefficients, ajp_eval
from altpoly.quad import gauss_jacobi_rule, golub_welsch, integrate_semi_axis, jacobi_entries
from param_forms import outcome

F = Fraction


# ------------------------------------------------------------- member evals

def test_highest_member_is_pure_exponential():
    sys = ExpPolySystem(F(3, 2), F(1, 2), 4)
    for t in (0.0, 0.7, 3.0):
        assert e_eval(sys, 4, t) == pytest.approx(math.exp(-4 * t), rel=1e-15)


def test_e_eval_matches_a_kind():
    sys = ExpPolySystem(0, 0, 2)
    for t in (0.0, 0.5, 2.0):
        x = math.exp(-t)
        assert e_eval(sys, 1, t) == pytest.approx(3 * x - 4 * x * x, rel=1e-14)


def test_e_eval_zero_of_associated():
    sys = ExpPolySystem(1, 0, 1)
    assert e_eval(sys, 0, math.log(1.5)) == pytest.approx(0, abs=1e-15)


def test_substitution_consistency_against_exact_member():
    for (a, b) in ((F(1), F(0)), (F(2), F(1)), (F(1, 2), F(1, 2))):
        sys = ExpPolySystem(a, b, 3)
        for k in range(0, 4):
            for t in (0.0, 0.3, 1.1, 4.2):
                via_sys = e_eval(sys, k, t)
                exact = ajp_eval(PolyParams(a - 1, b, 3, k), F(math.exp(-t)))
                assert abs(F(via_sys) - exact) < 1e-14


def test_float_member_poly_is_the_exact_member_at_alpha_minus_one_rounded_once():
    # the shift alpha - 1 is exact: a float alpha - 1 rounds before the
    # kernel runs, and 26 of these 132 members then differ in the last bits
    for a, b in ((0.3, 0.7), (1.234, 0.567), (0.1, 2.3)):
        for n in range(1, 9):
            sys = ExpPolySystem(a, b, n)
            for k in range(n + 1):
                got = sys.member_poly(k)
                want = ajp_coefficients(PolyParams(F(a) - 1, F(b), n, k)).to_floats()
                assert got.mode == "float"
                assert [c.hex() for c in got.coeffs] == [c.hex() for c in want.coeffs], \
                    (a, b, n, k)
            assert sys.member_poly(n + 1).is_zero


def test_float_member_poly_overflow_names_the_direct_polynomial():
    # member k of the (alpha, beta) system is the direct polynomial at
    # (alpha, beta, k, n), not the alternative member at (alpha - 1, beta, n, k)
    with pytest.raises(CoefficientOverflowError,
                       match=r"^float coefficients of member \(n=0, k=406\) overflow the double "
                             r"range for alpha = 1\.5, beta = 0\.7; use exact parameters$"):
        ExpPolySystem(1.5, 0.7, 406).member_poly(0)
    for k in (-1, 5):
        with pytest.raises(ValueError, match=f"^k = {k} outside 0..4$"):
            ExpPolySystem(1, 0, 3).member_poly(k)


# -------------------------------------------------------------------- norms

def test_e_norm_values():
    assert e_norm(ExpPolySystem(1, 0, 1), 1) == F(1, 3)
    for n in range(1, 9):
        sys = ExpPolySystem(0, 0, n)
        for k in range(1, n + 1):
            assert e_norm(sys, k) == F(1, 2 * k)
    assert e_norm(ExpPolySystem(0, 0, 2), 1) == F(1, 2)


def test_e_norm_rejects_associated_function():
    with pytest.raises(DivergenceError):
        e_norm(ExpPolySystem(2, 1, 3), 0)


def test_e_norm_matches_semi_axis_integral():
    # the diagonal of the row, alpha in {1, 2, 3} and beta in {0, 1, 2}
    assert not verify.run_rows({"semi-axis-orthogonality": 8})["failures"]


# -------------------------------------------------------------------- zeros

def test_zero_closed_forms():
    assert e_zeros(0, 0, 1).lambdas[0] == pytest.approx(math.log(2), abs=1e-14)
    assert e_zeros(1, 0, 1).lambdas[0] == pytest.approx(math.log(1.5), abs=1e-14)


def test_zero_sources_n2():
    zs = e_zeros(1, 0, 2)
    expected = sorted(((6 - math.sqrt(6)) / 10, (6 + math.sqrt(6)) / 10), reverse=True)
    assert zs.source_x == pytest.approx(expected, abs=1e-14)
    assert zs.lambdas == pytest.approx([-math.log(x) for x in expected], abs=1e-14)


def test_t_exponential_zeros_have_chebyshev_closed_form():
    # the associated function of the (-1/2, -1/2) system is a scaled shifted
    # Chebyshev polynomial, so its zeros are sin^2((2j-1) pi / (4n))
    for n in range(1, 9):
        zs = e_zeros(F(-1, 2), F(-1, 2), n)
        closed = sorted(math.sin((2 * j - 1) * math.pi / (4 * n)) ** 2
                        for j in range(1, n + 1))
        assert sorted(zs.source_x) == pytest.approx(closed, abs=1e-12)


def test_zero_set_structure():
    for n in range(1, 9):
        zs = e_zeros(F(1, 2), F(1, 2), n)
        assert len(zs.lambdas) == n
        assert all(l > 0 for l in zs.lambdas)
        assert all(zs.lambdas[i] < zs.lambdas[i + 1] for i in range(n - 1))
        assert max(zs.residuals) < 1e-13
        for lam, x in zip(zs.lambdas, zs.source_x):
            assert lam == pytest.approx(-math.log(x), rel=1e-15)


def stacked_rows(n, pairs):
    """The zeros of each pair descending in x and golub_welsch's range flag,
    from one solve of the stack of the pairs' float exponents."""
    x, _, finite = golub_welsch(*jacobi_entries(n, [float(a) for a, _ in pairs],
                                                [float(b) for _, b in pairs]))
    return x[:, ::-1], finite


class _Handed(Exception):
    pass


def scan_flags(monkeypatch, n, pairs):
    """The rows of the stack of the pairs that the Z search's scan,
    zfun._largest_zeros, flags and hands to the guard. The scan raises at
    its first flagged row, so it runs again on the rows after each one."""
    a, b = [float(p) for p, _ in pairs], [float(q) for _, q in pairs]
    flagged = []

    def guard(n, r, _, x, finite):
        flagged.append(r)
        raise _Handed

    monkeypatch.setattr(zfun, "_exponents",
                        lambda n, rows, omega: ([a[r] for r in rows], [b[r] for r in rows]))
    monkeypatch.setattr(zfun, "guarded_zero_set", guard)
    start = 0
    while start < len(pairs):
        try:
            zfun._largest_zeros(n, list(range(start, len(pairs))), 1)
        except _Handed:
            start = flagged[-1] + 1
        else:
            break
    return set(flagged)


def test_stacked_zeros_match_e_zeros_and_the_horner_guard(monkeypatch):
    pairs = [(F(0), F(0)), (F(1, 2), F(3, 2)), (F(161, 3), F(161, 12)), (2.5, 0.0), (F(-1, 2), 7)]
    for n in (1, 2, 5, 12, 20):
        xs, finite = stacked_rows(n, pairs)
        assert scan_flags(monkeypatch, n, pairs) == set()
        for r, (a, b) in enumerate(pairs):
            # each row of one stacked solve is the pair's solve alone
            zs = guarded_zero_set(n, a, b, xs[r], finite[r])
            assert zs == e_zeros(a, b, n)
            # the guard's reference: DensePoly Horner on the rounded exact
            # member P_n^(a,b)(1-2x) at the binary parameters
            member = ajp_coefficients(PolyParams(F(a) - 1, F(b), n, 0)).to_floats()
            scale = max(abs(c) for c in member.coeffs)
            assert zs.residuals == tuple(abs(member(x)) / scale for x in zs.source_x)
            assert zs.lambdas == tuple(-math.log(x) for x in zs.source_x)


# the pairs of test_quad's stacked-rule test, then pairs whose zeros the guard
# refuses: a Jacobi matrix out of the double range (at 1e150 in its
# off-diagonal only), clustered zeros, zeros that round to x = 1 and, from
# n = 3, a member that overflows the floats
GUARD_PAIRS = [(F(-1, 2), F(0)), (F(0), F(0)), (F(1, 2), F(3, 2)), (F(3), F(2)),
               (F(161, 3), F(161, 6)), (0.999, -0.9), (22.0, 5.5), (F(7, 3), F(64)),
               (1e200, 0.0), (-0.5, 1e16), (1e120, 0.0), (F(10 ** 120), 0), (1e150, 1e150)]
GUARD_NS = (1, 2, 5, 11, 30, 60)
# the guard's refusals by the check that makes them; the scan makes the
# first three itself, without the member
SCANNED = ("too large for floats", "open interval", "cluster")
CAUSES = (*SCANNED, "overflow", "residual")


def test_e_zeros_equals_the_guard_on_its_row_of_a_multi_pair_stack(monkeypatch):
    # e_zeros solves its one pair, whose Jacobi matrix is built in Python
    # floats, and guards it in Python floats; the pair's row of a longer
    # stack is built by numpy, and the scan flags its rows by numpy
    seen = set()
    for n in GUARD_NS:
        xs, finite = stacked_rows(n, GUARD_PAIRS)
        flagged = scan_flags(monkeypatch, n, GUARD_PAIRS)
        must_flag = set()
        for r, (a, b) in enumerate(GUARD_PAIRS):
            want = outcome(guarded_zero_set, n, a, b, xs[r], finite[r])
            assert outcome(e_zeros, a, b, n) == want, (a, b, n)
            refused = issubclass(want[0], Exception)
            cause = next(c for c in CAUSES if c in want[1]) if refused else "answered"
            seen.add(cause)
            if cause in SCANNED:
                must_flag.add(r)
            # the member's overflow is checked before the zeros, so a row it
            # refuses may or may not be flagged by the scan
            elif cause != "overflow":
                assert r not in flagged, (a, b, n)
        assert must_flag <= flagged, (n, must_flag - flagged)
    assert seen == {*SCANNED, "overflow", "answered"}


def test_rule_nodes_are_the_zeros_of_the_associated_function_bit_for_bit():
    both = 0
    for n in GUARD_NS:
        for a, b in GUARD_PAIRS:
            (_, rule), (_, zeros) = outcome(gauss_jacobi_rule, n, a, b), outcome(e_zeros, a, b, n)
            if isinstance(rule, quad.QuadRule) and isinstance(zeros, ZeroSet):
                both += 1
                assert [x.hex() for x in rule.nodes] == \
                    [x.hex() for x in zeros.source_x[::-1]], (a, b, n)
    assert both >= 40


def test_e_zeros_takes_no_beta_moment(monkeypatch):
    def refuse(a, b):
        raise AssertionError("beta_moment called")

    monkeypatch.setattr(quad, "beta_moment", refuse)
    assert len(e_zeros(F(3, 2), F(1, 2), 6).lambdas) == 6
    with pytest.raises(AssertionError):
        quad.gauss_jacobi_rule(6, F(3, 2), F(1, 2))


def test_zeros_of_exponents_too_large_for_floats():
    with pytest.raises(RootFindingError, match=r"a = 1e\+200, b = 0, m = 3"):
        e_zeros(1e200, 0, 3)
    with pytest.raises(CoefficientOverflowError, match="n=3, k=0"):
        e_zeros(F(10 ** 120), 0, 3)
    # the zero (a+1)/(a+2) rounds to x = 1, lambda = 0
    with pytest.raises(RootFindingError, match="open interval"):
        e_zeros(1e120, 0, 1)
    with pytest.raises(DivergenceError, match="a = -1, b = 0, m = 2"):
        e_zeros(-1, 0, 2)


# --------------------------------------------------------------- quadrature

def test_rule_n1_frozen():
    rule = legendre_type_quadrature(1)
    assert rule.nodes[0] == pytest.approx(2 / 3, abs=1e-15)
    assert rule.weights[0] == pytest.approx(3 / 4, abs=1e-15)


def test_rule_n2_matches_brute_force():
    rule = legendre_type_quadrature(2)
    # brute force: solve the 2x2 exactness system sum w x^m = 1/(m+1), m = 1, 2
    x1, x2 = rule.nodes
    det = x1 * x2 * x2 - x2 * x1 * x1
    w1 = (0.5 * x2 * x2 - x2 / 3) / det
    w2 = (x1 / 3 - 0.5 * x1 * x1) / det
    assert rule.weights[0] == pytest.approx(w1, abs=1e-6)
    assert rule.weights[1] == pytest.approx(w2, abs=1e-6)
    # closed forms (16 +/- sqrt6)/36
    assert rule.weights[0] == pytest.approx((16 + math.sqrt(6)) / 36, rel=1e-14)
    assert rule.weights[1] == pytest.approx((16 - math.sqrt(6)) / 36, rel=1e-14)


def test_rule_exact_on_monomials_not_constants():
    assert not verify.run_rows({"gauss-type-rule": 8})["failures"]


def test_semi_axis_rule_n1():
    rule = semi_axis_rule(1)
    t1, v1 = rule.nodes[0], rule.weights[0]
    assert t1 == pytest.approx(math.log(1.5), abs=1e-15)
    assert v1 == pytest.approx(9 / 8, abs=1e-14)
    assert v1 * math.exp(-2 * t1) == pytest.approx(0.5, rel=1e-14)
    assert v1 * math.exp(-3 * t1) == pytest.approx(1 / 3, rel=1e-14)
    # the constant-direction probe is intentionally inexact
    assert v1 * math.exp(-t1) == pytest.approx(0.75, rel=1e-14)


def test_the_rules_store_their_n_as_an_int():
    # a numpy index is read by exact.whole_index, so the descriptor holds an int
    import numpy as np

    for rule, name in ((legendre_type_quadrature, "legendre-type"),
                       (semi_axis_rule, "semi-axis-exp")):
        desc = rule(np.int64(3)).weight_desc
        assert desc == (name, 3) and type(desc[1]) is int
        assert rule(np.int64(3)) == rule(3)


def test_semi_axis_rule_exactness():
    assert not verify.run_rows({"semi-axis-rule-exactness": 8})["failures"]


def test_discrete_orthogonality():
    for n in range(1, 9):
        rule = semi_axis_rule(n)
        sys = ExpPolySystem(0, 0, n)
        members = [sys.member_poly(k).to_floats() for k in range(n + 1)]
        for k in range(1, n + 1):
            for l in range(k, n + 1):
                got = sum(v * members[k](math.exp(-t)) * members[l](math.exp(-t))
                          for t, v in zip(rule.nodes, rule.weights))
                want = 1 / (2 * k) if k == l else 0.0
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (n, k, l)


# ------------------------------------------------------- A/T exponentials

def test_ea_et_eval():
    for t in (0.0, 0.9):
        assert ea_eval(1, 1, t) == pytest.approx(math.exp(-t), rel=1e-15)
        x = math.exp(-t)
        assert ea_eval(2, 1, t) == pytest.approx(3 * x - 4 * x * x, rel=1e-14)
        assert et_eval(1, 0, t) == pytest.approx(1 - 2 * x, abs=1e-15)
    assert et_eval(1, 0, math.log(2)) == pytest.approx(0, abs=1e-15)


def test_ea_et_eval_index_range():
    # k = n + 1 is the zero member that starts the downward recurrence, as
    # for e_eval; any other k outside 0..n is refused by name
    for ev in (ea_eval, et_eval):
        assert ev(3, 4, 0.5) == 0.0
        for k in (5, -1):
            with pytest.raises(ValueError, match=f"^k = {k} outside 0..4$"):
                ev(3, k, 0.5)
        with pytest.raises(ValueError, match="^n = 0 outside 1..inf$"):
            ev(0, 0, 0.5)


def test_ea_derivative_relation():
    assert not verify.run_rows({"exp-derivative-relation": 6})["failures"]


def test_a_exponential_norms_and_integrals():
    # unweighted semi-axis integrals of the zero-exponent system pull back to
    # the 1/x inner products: delta_kl/(2k) and 1/k
    assert not verify.run_rows({"a-exponential-norms": 7})["failures"]


def test_t_exponential_norms_and_integrals():
    # the T exponential weight 1/sqrt(exp(-t)(1-exp(-t))) is the (-1/2, -1/2)
    # semi-axis weight; integrals pull back to the T-kind values exactly (the
    # t-exponential-norms row); frozen spot value: n = k = 1 single integral is pi
    from altpoly.exact import PiRational
    from altpoly.marginal import t_coefficients
    half = F(-1, 2)
    assert integrate_semi_axis(t_coefficients(1, 1), half, half) == PiRational(0, 1)


# --------------------------------------------------------------- projection

def test_project_reproduces_basis_member():
    sys = ExpPolySystem(0, 0, 2)
    result = project(lambda t: e_eval(sys, 1, t), sys)
    assert result.coeffs[0] == pytest.approx(1, rel=1e-12)
    assert result.coeffs[1] == pytest.approx(0, abs=1e-12)
    assert result.error < 1e-12


def test_project_exact_for_span_member():
    sys = ExpPolySystem(0, 0, 3)
    result = project(lambda t: math.exp(-3 * t), sys)
    assert result.coeffs[2] == pytest.approx(1, rel=1e-12)
    assert abs(result.coeffs[0]) < 1e-12 and abs(result.coeffs[1]) < 1e-12
    assert result.error < 1e-12


def test_project_error_decreases_with_n():
    errors = []
    for n in range(4, 9):
        sys = ExpPolySystem(0, 0, n)
        errors.append(project(lambda t: t * math.exp(-t), sys).error)
    assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
