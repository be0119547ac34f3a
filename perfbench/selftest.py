"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They check that op lists are deterministic per seed, that every oracle agrees
with the library where the library is known to be right, that a corrupted
result is caught, and that every workload attempts every op kind it names.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from fractions import Fraction as F

import pytest

import clibatch
import oracles as O
import run
import workloads as W

LIB = run.load_library()
IN_PROCESS = ("exact-int", "exact-half", "float-rules")


def cli_runner():
    return clibatch.Runner(run.ROOT, run.child_env())


# ------------------------------------------------------------- determinism

@pytest.mark.parametrize("workload", IN_PROCESS)
def test_op_list_is_deterministic_per_seed(workload):
    def listing(seed):
        return [(op.kind, op.size, sorted(op.params.items()))
                for op in W.stream(workload, LIB, seed)]

    first, again, other = listing(7), listing(7), listing(8)
    assert first == again
    assert first != other
    assert [x[:2] for x in first] == [x[:2] for x in other]


def test_strata_cover_each_range_once_per_cycle():
    rng = W.Strata(5)
    assert sorted(rng.randint(0, 6) for _ in range(7)) == list(range(7))
    assert sorted(int(rng.random() * W.Strata.UNIT_BINS)
                  for _ in range(W.Strata.UNIT_BINS)) == list(range(W.Strata.UNIT_BINS))
    alpha, beta = rng.scope("alpha"), rng.scope("beta")
    assert sorted(alpha.choice("xyz") for _ in range(3)) == list("xyz")
    assert sorted(beta.choice("xyz") for _ in range(3)) == list("xyz")


def test_cli_op_list_is_deterministic_per_seed():
    def listing(seed):
        return [op.params["argv"] for op in clibatch.stream(cli_runner(), seed)]

    assert listing(7) == listing(7)
    assert listing(7) != listing(8)


# ----------------------------------------------- oracles against the library

@pytest.mark.parametrize("params", [(0, 0), (3, 5), (F(1, 2), F(-1, 2)), (F(7, 2), F(3, 2))])
def test_exact_oracles_match_library(params):
    a, b = params
    pc, quad = LIB.polycore, LIB.quad
    for n in range(9):
        members = [pc.ajp_coefficients(pc.PolyParams(a, b, n, k)) for k in range(n + 1)]
        for k, member in enumerate(members):
            assert member.coeffs == O.strip(O.member_coeffs(a, b, n, k))
            assert O.matches(pc.ajp_norm_h(pc.PolyParams(a, b, n, k)), O.norm_h(a, b, n, k))
            ip = quad.weighted_inner_product(member, members[-1], a, b)
            assert O.matches(ip, O.inner_product(O.member_coeffs(a, b, n, k),
                                                 O.member_coeffs(a, b, n, n), a, b))
        for k in range(n, n + 3):
            assert pc.direct_coefficients(a, b, n, k).coeffs == O.strip(O.direct_coeffs(a, b, n, k))
            assert O.matches(pc.direct_norm_d(a, b, n, k), O.direct_norm(a, b, n, k))


def test_marginal_oracles_match_library():
    mg = LIB.marginal
    for n in range(1, 9):
        for k in range(n + 1):
            assert mg.a_coefficients(n, k).coeffs == O.strip(O.a_member(n, k))
            assert mg.t_coefficients(n, k).coeffs == O.strip(O.t_member(n, k))
            for l in range(max(k, 1), n + 1):
                assert O.matches(mg.t_norm(n, k, l), O.inner_product(
                    O.t_member(n, k), O.t_member(n, l), F(-3, 2), F(-1, 2)))
                assert O.matches(mg.a_norm(n, k, l), O.inner_product(
                    O.a_member(n, k), O.a_member(n, l), -1, 0))


@pytest.mark.parametrize("params", [(1, 0), (1.3, 0.7), (F(5, 2), F(1, 2))])
def test_zero_oracle_matches_library(params):
    a, b = params
    for n in range(1, 9):
        want = O.zeros_x(a, b, n)
        assert W.zeros_err(LIB.quad.gauss_jacobi_rule(n, a, b).nodes, want) < 1e-12
        if isinstance(a, float) or a == 1:
            assert W.zeros_err(LIB.exppoly.e_zeros(a, b, n).source_x, want) < 1e-12


@pytest.mark.parametrize("params", [(0, 0), (F(-1, 2), F(1, 2)), (2.25, 0.75), (F(3, 2), 3)])
def test_moment_oracle_matches_rules(params):
    a, b = params
    for m in (1, 2, 5, 12, 20):
        rule = LIB.quad.gauss_jacobi_rule(m, a, b)
        assert W.rule_moment_err(rule.nodes, rule.weights, O.moments(a, b, 2 * m)) < 1e-12


def test_expansion_oracle_matches_projection():
    ex = LIB.exppoly
    for a, b in ((1, 0), (F(3, 2), F(1, 2))):
        for n in range(1, 7):
            for r in range(1, n + 1):
                got = ex.project(lambda t, r=r: math.exp(-r * t), ex.ExpPolySystem(a, b, n))
                assert W.rel_vec_err(got.coeffs, O.expansion_coeffs(a, b, n, r)) < 1e-12


def test_z_oracle_matches_library():
    for omega in W.Z_OMEGAS:
        for n in range(2, 6):
            spec = LIB.zfun.z_build(n, omega, W.Z_CANDIDATES)
            alpha, lam = O.z_choice(n, omega)
            assert spec.alpha_n == alpha
            assert abs(spec.gamma_n - lam) < 1e-12 * lam


def test_z_oracle_reports_infeasible_sizes():
    assert O.z_choice(7, 1) is None


# --------------------------------------------------- corrupted results caught

def run_op(op):
    result, expected = op.call(), op.expect()
    assert op.check(result, expected) <= op.tol, "uncorrupted result must pass"
    return result, expected


def caught(op, result, expected):
    return not op.check(result, expected) <= op.tol


def test_corrupted_exact_results_are_caught():
    ops = W.ExactOps(LIB, W.Strata(1), W.INT_PARAMS)
    dense = LIB.poly.DensePoly
    member = ops.member(6)
    poly, want = run_op(member)
    assert caught(member, dense(poly.coeffs[:-1] + (poly.coeffs[-1] + 1,)), want)
    gram = ops.gram(6)
    values, want = run_op(gram)
    assert caught(gram, (values[0] + F(1, 10**30),) + values[1:], want)
    rec = ops.recurrence(5)
    seq, want = run_op(rec)
    assert caught(rec, seq[:-1], want)


def test_corrupted_float_results_are_caught():
    ops = W.FloatOps(LIB, W.Strata(1))
    zeros = ops.zeros(6)
    zs, want = run_op(zeros)
    bad = (zs.source_x[0] * (1 + 1e-8),) + zs.source_x[1:]
    assert caught(zeros, dataclasses.replace(zs, source_x=bad), want)
    rule = ops.rule(20)
    qr, want = run_op(rule)
    i = max(range(len(qr.weights)), key=qr.weights.__getitem__)
    weights = qr.weights[:i] + (qr.weights[i] * (1 + 1e-7),) + qr.weights[i + 1:]
    assert caught(rule, dataclasses.replace(qr, weights=weights), want)
    project = ops.project(5)
    pr, want = run_op(project)
    assert caught(project, dataclasses.replace(pr, coeffs=tuple(c * (1 + 1e-7) for c in pr.coeffs)),
                  want)
    zbuild = ops.zbuild((4, F(0)))
    spec, want = run_op(zbuild)
    assert caught(zbuild, dataclasses.replace(spec, alpha_n=spec.alpha_n + 1), want)
    assert caught(zbuild, dataclasses.replace(spec, gamma_n=spec.gamma_n * (1 + 1e-8)), want)


def test_corrupted_cli_output_is_caught():
    ops = clibatch.CliOps(cli_runner(), W.Strata(1))
    coeffs = ops.coeffs(5)
    out, want = run_op(coeffs)
    header, first, *rest = out.splitlines()
    i, c = first.split(",")
    assert caught(coeffs, "\n".join([header, f"{i},{F(c) + 1}", *rest]), want)


# ------------------------------------------------------ every kind attempted

@pytest.mark.parametrize("workload", IN_PROCESS)
def test_every_named_kind_is_attempted(workload):
    records, busy = run.measure(W.stream(workload, LIB, 3))
    counts = Counter(r.kind for r in records)
    assert busy > 0
    assert set(counts) == set(W.KINDS[workload])
    assert min(counts.values()) > 0


def test_every_cli_kind_is_in_a_pass_and_runs():
    ops = list(clibatch.stream(cli_runner(), 3))
    assert {op.kind for op in ops} == set(clibatch.KINDS)
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    records, _ = run.measure(iter(first.values()))
    assert Counter(r.kind for r in records) == Counter(clibatch.KINDS)


def test_unattempted_kind_makes_the_run_incorrect():
    records, _ = run.measure(iter([W.ExactOps(LIB, W.Strata(1), W.INT_PARAMS).member(4)]))
    assert run.missing_kinds("exact-int", records) == sorted(set(W.KINDS["exact-int"]) - {"member"})
