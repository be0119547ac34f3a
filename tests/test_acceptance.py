"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion. Criteria 1-9 run their rows of
the invariant table (altpoly.verify) at the criterion's own range."""

import json
import math
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from altpoly import verify
from altpoly.exppoly import legendre_type_quadrature
from altpoly.marginal import MarginalKind, a_coefficients, plot_table, t_coefficients
from altpoly.poly import DensePoly
from altpoly.verify import shifted_chebyshev_coefficients, shifted_legendre_coefficients
from altpoly.zfun import whole_candidates, z_search, z_search_real

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def report(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{label}]: PASS")


def assert_rows(ranges: dict):
    """Each named row up to its top index; a row that runs no checks raises."""
    assert not verify.run_rows(ranges)["failures"]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "altpoly", *args],
                          capture_output=True, text=True)


def test_criterion_01_exact_orthogonality():
    with report(1, "exact orthogonality, integer weights, n <= 10"):
        assert_rows({"orthogonality-exact": 10})


def test_criterion_02_half_integer_orthogonality():
    with report(2, "half-integer orthogonality, normalized 1e-10"):
        # exact on pi-rational values, so within any normalized tolerance
        assert_rows({"orthogonality-half-integer": 10})


def test_criterion_03_identity_suite():
    with report(3, "identity suite exact, n <= 8"):
        identities = ("composition-identity", "reciprocity", "differentiation-formula",
                      "diff-difference-raising", "diff-difference-lowering", "ode-residual",
                      "endpoint-sign", "shift-invariance")
        assert_rows(dict.fromkeys(identities, 8) | {"direct-sign": 4, "direct-orthogonality": 4})


def test_criterion_04_marginal_norms():
    with report(4, "marginal norms: A exact, T vs Beta oracle"):
        assert_rows({"a-orthogonality": 12, "a-single-integral": 12,
                     "t-orthogonality": 8, "t-single-integral": 8})


def test_criterion_05_singular_members_are_classical():
    with report(5, "singular members: shifted Legendre / Chebyshev"):
        assert_rows({"a-singular-is-shifted-legendre": 10,
                     "t-singular-is-shifted-chebyshev": 10})
        assert a_coefficients(0, 0) == shifted_legendre_coefficients(0) == DensePoly.one()
        assert t_coefficients(0, 0) == shifted_chebyshev_coefficients(0) == DensePoly.one()


def test_criterion_06_quadrature():
    with report(6, "Gauss-type rule exactness and frozen small rules"):
        assert_rows({"gauss-type-rule": 8})
        rule1 = legendre_type_quadrature(1)
        assert rule1.nodes[0] == pytest.approx(2 / 3, abs=1e-14)
        assert rule1.weights[0] == pytest.approx(3 / 4, abs=1e-14)
        rule2 = legendre_type_quadrature(2)
        # brute force: weights solved from the m = 1, 2 exactness conditions
        vander = np.array([[x, x * x] for x in rule2.nodes]).T
        brute = np.linalg.solve(vander, np.array([0.5, 1 / 3]))
        assert rule2.weights[0] == pytest.approx(brute[0], abs=1e-6)
        assert rule2.weights[1] == pytest.approx(brute[1], abs=1e-6)
        # stated decimals carry about five digits
        assert rule2.weights[0] == pytest.approx(0.512458, abs=1e-4)
        assert rule2.weights[1] == pytest.approx(0.376393, abs=1e-4)


def test_criterion_07_semi_axis():
    with report(7, "semi-axis: discrete orthogonality and exact norms"):
        assert_rows({"discrete-orthogonality": 8, "semi-axis-orthogonality": 8})


def test_criterion_08_zeros():
    with report(8, "zeros: closed forms and residuals"):
        assert_rows({"lambda-closed-form": 1, "zero-set": 8})


def test_criterion_09_z_systems():
    with report(9, "Z systems: search, real boundary, endpoint zeros"):
        alpha, gamma = z_search(1, 0, whole_candidates())
        assert alpha == 0
        assert gamma == pytest.approx(math.log(2), abs=1e-13)
        alpha_r, gamma_r = z_search_real(1, 0)
        assert alpha_r == pytest.approx((2 - math.e) / (math.e - 1), abs=1e-10)
        assert gamma_r == pytest.approx(1.0, abs=1e-9)
        assert_rows({"z-system-endpoint": 5})


def test_criterion_10_figure_reproduction():
    with report(10, "figure data endpoints and golden bytes"):
        for kind, fam, golden in ((MarginalKind.A, "a", "fig_a_n5.csv"),
                                  (MarginalKind.T, "t", "fig_t_n5.csv")):
            rows = plot_table(kind, 5, 512)
            assert len(rows) == 512
            x_last, values = rows[-1]
            assert x_last == 1.0
            for k, v in enumerate(values, start=1):
                assert abs(v - (-1) ** (5 - k)) < 1e-12
            out = run_cli("plot-data", "--family", fam, "--n", "5",
                          "--points", "512")
            assert out.returncode == 0
            assert out.stdout == (GOLDEN / golden).read_text()


def test_criterion_11_cli_determinism_and_exit_codes():
    with report(11, "CLI determinism and exit-code contract"):
        va = ("verify", "--suite", "zfun", "--nmax", "2")
        first, second = run_cli(*va), run_cli(*va)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        pa = ("plot-data", "--family", "a", "--n", "4", "--points", "128")
        assert run_cli(*pa).stdout == run_cli(*pa).stdout
        # forced failures: usage error -> 2, computational error -> 1 + JSON
        assert run_cli("coeffs", "--family", "ajp", "--n", "1",
                       "--no-such-flag").returncode == 2
        broken = run_cli("quad", "--family", "ajp", "--alpha", "-1",
                         "--beta", "0", "--n", "0", "--m", "2")
        assert broken.returncode == 1
        assert json.loads(broken.stderr)["error"] == "DivergenceError"
