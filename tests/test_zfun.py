import json
import math
from fractions import Fraction

import numpy as np
import pytest

from altpoly import cli, exppoly, verify, zfun
from altpoly.errors import FeasibilityError, RootFindingError
from altpoly.exact import is_exact
from altpoly.exppoly import ExpPolySystem, e_eval
from altpoly.poly import DensePoly
from altpoly.zfun import (
    etilde_eval,
    lambda_max,
    rational_candidates,
    weight_peak,
    whole_candidates,
    z_build,
    z_build_real,
    z_collocation_fit,
    z_search,
    z_search_real,
)

F = Fraction


def test_lambda_max_closed_form():
    # ln((a + 2) / (a + 1)) at n = 1 for a in {0, 1/2, 1, 2, 5}
    assert not verify.run_rows({"lambda-closed-form": 1})["failures"]


def test_etilde_examples():
    assert etilde_eval(0, 0, 1, 0, 1.0) == pytest.approx(0, abs=1e-14)
    assert etilde_eval(3, 1, 4, 4, 0.0) == 1.0
    assert etilde_eval(1, 0, 1, 1, 1.0) == pytest.approx(2 / 3, rel=1e-14)


def test_weight_peak():
    assert weight_peak(1) == pytest.approx(math.log(2), rel=1e-15)
    assert weight_peak(0) == 0.0
    assert weight_peak(-0.3) == 0.0
    assert weight_peak(math.e - 1) == pytest.approx(1.0, rel=1e-15)
    assert weight_peak(F(1, 2)) == weight_peak("1/2") == math.log1p(0.5)
    # omega enters through exact.finite_param: an infinite or nan omega is refused
    for omega in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^omega must be finite, got omega = {omega}$"):
            weight_peak(omega)


def test_z_search_whole_numbers():
    alpha, gamma = z_search(1, 0, whole_candidates(10))
    assert alpha == 0
    assert gamma == pytest.approx(math.log(2), abs=1e-14)


def test_z_search_single_candidate():
    alpha, gamma = z_search(1, 0, (F(10),))
    assert alpha == 10
    assert gamma == pytest.approx(math.log(12 / 11), abs=1e-14)


def test_z_search_permutation_invariance():
    base = list(whole_candidates(12))
    scrambled = base[5:] + base[:5]
    assert z_search(2, F(1, 2), base) == z_search(2, F(1, 2), scrambled)
    assert z_search(2, F(1, 2), base) == z_search(2, F(1, 2), list(reversed(base)))


def test_z_search_infeasible():
    # at omega = 1 and n = 4 no whole candidate below 8 keeps the zero <= 1
    with pytest.raises(FeasibilityError):
        z_search(4, 1, whole_candidates(8))


def test_z_search_real_boundary():
    alpha, gamma = z_search_real(1, 0)
    assert alpha == pytest.approx((2 - math.e) / (math.e - 1), abs=1e-10)
    assert gamma == pytest.approx(1.0, abs=1e-9)


def test_candidate_sets():
    wholes = whole_candidates(5)
    assert wholes == tuple(F(i) for i in range(6))
    rats = rational_candidates(2)
    assert F(1, 2) in rats and F(3, 2) in rats and F(2, 3) in rats and F(7, 4) in rats
    assert F(1, 5) not in rats and max(rats) == 2
    assert rats == tuple(sorted(rats))


def test_z_build_scaled_system():
    spec = z_build(1, 0, whole_candidates(10))
    assert spec.scaled
    assert spec.alpha_n == 0
    assert spec.gamma_n == pytest.approx(math.log(2), abs=1e-14)
    assert spec.associated_eval(1.0) == pytest.approx(0, abs=1e-14)


def test_z_build_real_unscaled():
    spec = z_build_real(1, 0)
    assert not spec.scaled
    assert spec.gamma_n == pytest.approx(1.0, abs=1e-9)
    assert abs(spec.associated_eval(1.0)) < 1e-9


def test_z_build_reference_configuration():
    # equal exponents, n = 2, whole-number candidates
    spec = z_build(2, 1, whole_candidates())
    assert spec.gamma_n <= 1
    assert abs(spec.associated_eval(1.0)) < 1e-9
    assert spec.beta_n == spec.alpha_n


def test_z_build_endpoint_grid():
    assert not verify.run_rows({"z-system-endpoint": 5})["failures"]


def test_scaling_consistency_identity():
    spec = z_build(3, F(1, 2), whole_candidates())
    sys = ExpPolySystem(spec.alpha_n, spec.beta_n, 3)
    for k in range(1, 4):
        assert spec.member_eval(k, 1.0) == pytest.approx(
            e_eval(sys, k, spec.gamma_n), rel=1e-14)


def test_collocation_constant_and_member():
    spec = z_build(2, 0, whole_candidates())
    r = z_collocation_fit(lambda t: 1.0, spec)
    assert r.coeffs[0] == pytest.approx(1, rel=1e-12)
    assert all(abs(c) < 1e-12 for c in r.coeffs[1:])
    assert r.node_residual < 1e-12
    r2 = z_collocation_fit(lambda t: spec.member_eval(1, t), spec)
    assert r2.coeffs[1] == pytest.approx(1, rel=1e-10)
    assert abs(r2.coeffs[0]) < 1e-10 and abs(r2.coeffs[2]) < 1e-10


def test_collocation_error_decreases():
    e2 = z_collocation_fit(lambda t: math.exp(-t), z_build(2, 0, whole_candidates())).max_grid_error
    e3 = z_collocation_fit(lambda t: math.exp(-t), z_build(3, 0, whole_candidates())).max_grid_error
    assert e3 < e2


@pytest.mark.parametrize("n,omega,candidates,alpha", [
    (8, Fraction(1, 4), whole_candidates(64), 22),
    (5, 1, rational_candidates(64), Fraction(161, 3)),
])
def test_z_build_endpoint_check_by_the_kernel(n, omega, candidates, alpha):
    # float Horner on the expanded member reads about 3.7e-9 at t = 1 on
    # these systems, which would fail the 1e-9 endpoint check; the kernel
    # reads -2.53e-12 and -6.90e-13, the exact member rounded once -2.80e-12
    # and -7.23e-13
    spec = z_build(n, omega, candidates)
    assert spec.alpha_n == alpha and spec.scaled
    assert abs(spec.associated_eval(1.0)) < 1e-11


def test_z_build_real_unscaled_at_n9():
    spec = z_build_real(9, 0)
    assert not spec.scaled
    assert abs(spec.associated_eval(1.0)) < 1e-9


def test_member_matrix_matches_pointwise_members():
    spec = z_build(3, Fraction(1, 2), whole_candidates())
    ts = [0.0, 0.3, 1.0]
    matrix = spec.member_matrix(ts)
    system = ExpPolySystem(spec.alpha_n, spec.beta_n, 3)
    assert spec.scaled and matrix.shape == (3, 4) and all(matrix[:, 0] == 1.0)
    for i, t in enumerate(ts):
        for k in range(1, 4):
            assert matrix[i, k] == float(e_eval(system, k, spec.gamma_n * t))
    for k in (-1, 4):
        with pytest.raises(ValueError):
            spec.member_eval(k, 0.5)


def _feasible(alpha, omega) -> bool:
    """Reference feasibility check: both exponents as Fraction or float."""
    a = Fraction(alpha) if is_exact(alpha) else float(alpha)
    return a > -1 and (Fraction(omega) if is_exact(omega) else float(omega)) * a > -1


@pytest.mark.parametrize("omega", [F(-1, 2), 0, 0.5, F(1, 2), 2, 2.0, -0.5])
def test_feasible_filter_matches_per_candidate_check(omega):
    # int, Fraction and float candidates, including the omega * alpha = -1
    # boundary at omega = -1/2 (alpha = 2) and omega = 2 (alpha = -1/2)
    cands = sorted([-3, -1, 0, 1, 2, 3, 7, F(-3, 2), F(-1, 2), F(-1, 3), F(1, 2), F(2),
                    F(5, 2), -1.0, -0.75, -0.5, -0.4999999999999999, 0.0, 1.9999999999999998,
                    2.0, 2.5, 1e300, 10 ** 30])
    want = [alpha for alpha in cands if _feasible(alpha, omega)]
    got = zfun._feasible_candidates(cands, omega)
    assert got == want and [type(a) for a in got] == [type(a) for a in want]
    assert got, omega


def test_omega_beyond_the_float_range_gets_a_typed_refusal():
    # the exact filter never rounds omega, so rational candidates pass it
    # and the first nonzero second exponent is refused by name
    omega = F(10) ** 400
    assert zfun._feasible_candidates(whole_candidates(3), omega) == list(whole_candidates(3))
    with pytest.raises(RootFindingError, match=f"a = 1, b = {10 ** 400}, m = 3"):
        z_build(3, omega, whole_candidates(64))


@pytest.mark.parametrize("omega,candidates,a", [
    (F(10) ** 400, [0.5, 1], 0.5),
    (0.5, [10 ** 400, 1], 10 ** 400),
    (0.5, [F(10) ** 400], 10 ** 400),
], ids=["float-alpha", "int-alpha", "fraction-alpha"])
def test_a_float_against_a_rational_beyond_the_float_range_is_refused_by_name(
        omega, candidates, a):
    # the pair's second exponent is formed exactly where the float product
    # overflows, so the first pair is refused naming a and b
    for search in (z_search, z_build):
        with pytest.raises(RootFindingError, match=f"a = {a}, b = {5 * 10 ** 399}, m = 3 "):
            search(3, omega, candidates)


def test_feasibility_beyond_the_float_range_is_decided_exactly():
    # -0.5 * 10**400 < -1: the negative float candidate is skipped, and the
    # search refuses the next candidate by name, or says none is integrable
    big = F(10) ** 400
    assert zfun._feasible_candidates([-0.5, 0.5, 1], big) == [0.5, 1]
    assert zfun._feasible_candidates([-1, 1.5, 10 ** 400], -0.5) == [1.5]
    with pytest.raises(RootFindingError, match=f"a = 1, b = {10 ** 400}, m = 3 "):
        z_search(3, big, [-0.5, 1])
    with pytest.raises(FeasibilityError, match="no candidate gives an integrable weight"):
        z_build(3, big, [-0.5])


def _scan(n, omega, candidates):
    """Reference search: one lambda_max per feasible candidate, reduced in
    sorted order (the loop the stacked search replaced)."""
    best = None
    for alpha in sorted(candidates):
        if not _feasible(alpha, omega):
            continue
        lam = lambda_max(alpha, alpha * omega, n)
        if lam > 1:
            continue
        if best is None or lam > best[1]:
            best = (alpha, lam)
    if best is None:
        raise FeasibilityError(
            f"no candidate keeps the largest zero below 1 (n={n}, omega={omega})")
    return best


def _outcome(f, *args):
    try:
        return f(*args)
    except FeasibilityError as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_search_matches_per_candidate_scan(n):
    for omega in (F(0), F(1, 4), F(1, 2), F(1), F(2)):
        for candidates in (whole_candidates(64), rational_candidates(64)):
            assert _outcome(z_search, n, omega, candidates) == \
                _outcome(_scan, n, omega, candidates), (n, omega, len(candidates))


def test_scan_covers_a_largest_zero_that_does_not_fall():
    # n = 1: lambda_max is ln 2 for every alpha at omega = 1 (ties go to the
    # smallest alpha) and grows with alpha at omega = 2
    flat = [lambda_max(a, a, 1) for a in whole_candidates(8)]
    rising = [lambda_max(a, 2 * a, 1) for a in whole_candidates(8)]
    assert max(flat) - min(flat) < 1e-15
    assert all(x < y for x, y in zip(rising, rising[1:]))
    assert z_search(1, 1, whole_candidates(8))[0] == 0


def _spoil_residual(monkeypatch, alpha):
    """Make the rounded member of candidate alpha miss its zeros by about 1e-9."""
    member = exppoly.shifted_jacobi_coefficients

    def spoiled(m, a, b):
        coeffs = list(member(m, a, b).to_floats().coeffs)
        if a == alpha:
            coeffs[0] *= 1 + 1e-9
        return DensePoly(coeffs)

    monkeypatch.setattr(exppoly, "shifted_jacobi_coefficients", spoiled)


def test_a_failing_residual_guard_on_the_chosen_candidate_fails_the_search(monkeypatch):
    assert z_search(3, 0, whole_candidates(10))[0] == 4
    _spoil_residual(monkeypatch, 4)
    with pytest.raises(RootFindingError, match="zero residual too large"):
        z_search(3, 0, whole_candidates(10))
    with pytest.raises(RootFindingError, match="zero residual too large"):
        exppoly.e_zeros(4, 0, 3)


def test_the_residual_guard_runs_only_on_the_chosen_candidate(monkeypatch):
    # alpha = 5 is feasible but not chosen; its spoiled member is never read
    want = z_build(3, 0, whole_candidates(10))
    _spoil_residual(monkeypatch, 5)
    assert z_build(3, 0, whole_candidates(10)) == want
    with pytest.raises(RootFindingError, match="zero residual too large"):
        exppoly.e_zeros(5, 0, 3)


@pytest.mark.parametrize("mutation,message", [
    (lambda x: 1.0, "open interval"),           # the largest zero rounds to x = 1
    (lambda x: x - 1e-13, "cluster detected"),  # it coincides with the next one
], ids=["outside", "cluster"])
def test_a_misplaced_zero_on_a_candidate_that_is_not_chosen_fails_the_search(
        monkeypatch, mutation, message):
    golub_welsch = zfun.golub_welsch

    def mutated(diag, off):
        nodes, weights, finite = golub_welsch(diag, off)
        if len(nodes) == 11:
            nodes[5, -1] = mutation(nodes[5, -2])    # alpha = 5, not chosen
        return nodes, weights, finite

    monkeypatch.setattr(zfun, "golub_welsch", mutated)
    with pytest.raises(RootFindingError, match=message):
        z_search(3, 0, whole_candidates(10))


def test_z_build_guards_and_builds_only_the_chosen_candidate(monkeypatch):
    counts = {"member": 0, "zero set": 0}
    member, zero_set = exppoly.shifted_jacobi_coefficients, exppoly.ZeroSet

    def counted_member(*args):
        counts["member"] += 1
        return member(*args)

    def counted_zero_set(*args):
        counts["zero set"] += 1
        return zero_set(*args)

    monkeypatch.setattr(exppoly, "shifted_jacobi_coefficients", counted_member)
    monkeypatch.setattr(exppoly, "ZeroSet", counted_zero_set)
    spec = z_build(8, F(1, 2), whole_candidates(64))
    assert counts == {"member": 1, "zero set": 1}
    assert spec.alpha_n == 34
    # the boundary search's 48 steps guard nothing; _assemble guards the last
    counts.update({"member": 0, "zero set": 0})
    z_build_real(5, 0.5)
    assert counts == {"member": 1, "zero set": 1}


def test_both_searches_hand_the_system_the_n_they_read():
    # one protocol: each search returns (n, omega, alpha, row) with n as
    # exact.whole_index reads it, so a numpy n builds a system of int n
    for spec in (z_build(np.int64(3), 0, whole_candidates(64)), z_build_real(np.int64(3), 0.5)):
        assert type(spec.n) is int and type(spec.zeros.n) is int
    assert z_build(np.int64(3), 0, whole_candidates(64)) == z_build(3, 0, whole_candidates(64))
    # the public searches read the same row: z_search_real's largest zero is
    # the built system's gamma, bit for bit
    spec = z_build_real(5, 0.5)
    alpha, gamma = z_search_real(5, 0.5)
    assert type(gamma) is float
    assert (alpha.hex(), gamma.hex()) == (spec.alpha_n.hex(), spec.gamma_n.hex())
    assert z_search(8, F(1, 2), whole_candidates(64)) == \
        (34, z_build(8, F(1, 2), whole_candidates(64)).gamma_n)


def test_a_search_with_no_integrable_candidate_says_so():
    for omega, candidates in ((F(-1, 2), [F(3)]), (-3, [F(1, 2), F(1)]),
                              (0, [F(-1), F(-2)])):
        with pytest.raises(FeasibilityError, match=(
                rf"no candidate gives an integrable weight .*n=3, omega={omega}, "
                rf"{len(candidates)} candidates")):
            z_search(3, omega, candidates)


def test_the_cli_exits_1_when_no_candidate_is_integrable(monkeypatch, capsys):
    # every CLI candidate set holds alpha = 0, which is always integrable,
    # so the CLI reaches this refusal only with a narrower set
    monkeypatch.setattr(zfun, "whole_candidates", lambda limit: (F(1, 2), F(1)))
    assert cli.main(["zbuild", "--n", "3", "--omega", "-3"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FeasibilityError"
    assert "no candidate gives an integrable weight" in err["message"]


def test_z_build_is_one_eigen_solve_per_candidate_block(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    spec = z_build(8, F(1, 2), whole_candidates(64))
    block = zfun._STACK_ENTRIES // 64
    assert len(calls) == -(-65 // block) == 1
    assert calls[0] == (65, 8, 8)
    assert spec.zeros == exppoly.e_zeros(spec.alpha_n, spec.beta_n, 8)
    # blocks bound the stack: n = 30 takes at most 2**17 // 900 = 145 candidates
    calls.clear()
    with pytest.raises(FeasibilityError):
        z_search(30, 0, rational_candidates(40))
    assert max(shape[0] for shape in calls) == zfun._STACK_ENTRIES // 900
    assert sum(shape[0] for shape in calls) == len(rational_candidates(40))


def test_z_build_real_solves_each_pair_once(monkeypatch):
    # the bisection's 48 steps, the last of which gives the system's zeros
    diagonals = []
    golub_welsch = zfun.golub_welsch

    def counted(diag, off):
        diagonals.append(tuple(diag[0]))
        return golub_welsch(diag, off)

    monkeypatch.setattr(zfun, "golub_welsch", counted)
    monkeypatch.setattr(exppoly, "golub_welsch", counted)
    spec = z_build_real(5, 0.5)
    assert len(diagonals) == len(set(diagonals)) == 48
    monkeypatch.undo()
    assert spec.zeros == exppoly.e_zeros(spec.alpha_n, spec.alpha_n * spec.omega, 5)
    assert z_search_real(5, 0.5) == (spec.alpha_n, spec.gamma_n)
