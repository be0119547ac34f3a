"""The invariant table itself: each suite keeps its check count, every row
runs checks, and a wrong library value fails its row under run_suite and
the acceptance criterion that runs it."""

import pytest
import test_acceptance as acceptance

from altpoly import exppoly, marginal, polycore, quad, verify, zfun

# checks per suite at --nmax 8 before the table replaced the suite loops
FLOOR = {"core": 8197, "quad": 185, "marginal": 504, "exp": 809, "zfun": 36}


@pytest.mark.parametrize("suite", FLOOR)
def test_suite_keeps_its_check_count(suite):
    summary = verify.run_suite(suite, 8)
    assert summary["failed"] == 0
    assert summary["total"] >= FLOOR[suite]


def test_every_row_runs_checks_at_nmax_8():
    assert {row.suite for row in verify.ROWS} == set(verify.SUITES)
    assert not [row.name for row in verify.ROWS
                if next(iter(row.grid(row.top(8))), None) is None]


def test_a_row_that_runs_nothing_is_refused():
    with pytest.raises(verify.NoChecksError, match="orthogonality-exact"):
        verify.run_rows({"orthogonality-exact": -1})


def assert_caught(capsys, suite, row, criterion):
    """The row fails under run_suite at a small nmax, and the criterion that
    runs it fails and prints its FAIL line."""
    failures = verify.run_suite(suite, 2)["failures"]
    assert row in {f["name"] for f in failures}
    with pytest.raises(AssertionError):
        criterion()
    assert "]: FAIL" in capsys.readouterr().out


def test_wrong_norm_fails_core(monkeypatch, capsys):
    norm = polycore.ajp_norm_h
    monkeypatch.setattr(polycore, "ajp_norm_h", lambda p: 2 * norm(p))
    assert_caught(capsys, "core", "orthogonality-exact",
                  acceptance.test_criterion_01_exact_orthogonality)


def test_wrong_rule_weight_fails_quad(monkeypatch, capsys):
    solve = quad.golub_welsch

    def skewed(diag, off):
        # the first weight of every Gauss-Jacobi rule off by 1e-6 relative
        nodes, v0sq, finite = solve(diag, off)
        v0sq = v0sq.copy()
        v0sq[:, 0] *= 1 + 1e-6
        return nodes, v0sq, finite

    monkeypatch.setattr(quad, "golub_welsch", skewed)
    assert_caught(capsys, "quad", "rule-weight-sum", acceptance.test_criterion_06_quadrature)


def test_wrong_t_norm_fails_marginal(monkeypatch, capsys):
    norm = marginal.t_norm
    monkeypatch.setattr(marginal, "t_norm", lambda n, k, l: norm(n, k, l) + 1)
    assert_caught(capsys, "marginal", "t-orthogonality",
                  acceptance.test_criterion_04_marginal_norms)


def test_wrong_member_values_fail_exp(monkeypatch, capsys):
    values = exppoly.member_values
    monkeypatch.setattr(exppoly, "member_values",
                        lambda *args: values(*args) * (1 + 1e-6))
    assert_caught(capsys, "exp", "discrete-orthogonality", acceptance.test_criterion_07_semi_axis)


def test_wrong_associated_function_fails_zfun(monkeypatch, capsys):
    # z_build's own endpoint guard raises; the row records that as a failure
    values = zfun.member_values

    def spoiled(alpha, beta, n, xs, lo=1, hi=None):
        rows = values(alpha, beta, n, xs, lo, hi)
        if lo == 0:
            rows[0] += 1e-6     # the associated function
        return rows

    monkeypatch.setattr(zfun, "member_values", spoiled)
    assert_caught(capsys, "zfun", "z-system-endpoint", acceptance.test_criterion_09_z_systems)
