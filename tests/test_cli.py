import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "altpoly", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "altpoly" in cp.stdout


def test_coeffs_exact_bytes():
    cp = run_cli("coeffs", "--family", "ajp", "--alpha", "0", "--beta", "0",
                 "--n", "2", "--k", "0")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "i,coeff\n0,3\n1,-12\n2,10\n"


def test_coeffs_rational_output():
    cp = run_cli("coeffs", "--family", "t", "--n", "2", "--k", "0")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "i,coeff\n0,1\n1,-8\n2,8\n"


def test_coeffs_float_mode():
    cp = run_cli("coeffs", "--family", "ajp", "--alpha", "0", "--beta", "0",
                 "--n", "1", "--k", "0", "--mode", "float")
    assert cp.stdout == "i,coeff\n0,2.0\n1,-3.0\n"


def test_mode_env_override(tmp_path):
    import os
    env = dict(os.environ, ALTPOLY_MODE="float")
    cp = run_cli("coeffs", "--family", "ajp", "--alpha", "0", "--beta", "0",
                 "--n", "1", "--k", "0", env=env)
    assert cp.stdout == "i,coeff\n0,2.0\n1,-3.0\n"


def test_zeros_output():
    cp = run_cli("zeros", "--family", "exp", "--alpha", "1", "--beta", "0", "--n", "1")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "s,x,t"
    s, x, t = lines[1].split(",")
    assert float(t) == pytest.approx(math.log(1.5), abs=1e-14)


def test_quad_exp_table():
    cp = run_cli("quad", "--family", "exp", "--n", "1")
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "s,x_s,t_s,w_s,v_s"
    _, x, t, w, v = lines[1].split(",")
    assert float(x) == 2 / 3 and float(w) == 0.75


def test_quad_gauss_jacobi_csv():
    cp = run_cli("quad", "--family", "ajp", "--alpha", "0", "--beta", "0",
                 "--n", "0", "--m", "1")
    assert cp.stdout.splitlines()[0] == "node,weight"
    assert cp.stdout.splitlines()[1].startswith("0.5,")


def test_verify_summary_and_exit():
    cp = run_cli("verify", "--suite", "zfun", "--nmax", "2")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["failed"] == 0
    assert payload["passed"] == payload["total"] > 0


def test_zbuild_json():
    cp = run_cli("zbuild", "--n", "1", "--omega", "0")
    payload = json.loads(cp.stdout)
    assert payload["alpha_n"] == 0.0
    assert payload["scaled"] is True
    assert payload["gamma_n"] == math.log(2)


def test_project_json():
    cp = run_cli("project", "--alpha", "0", "--beta", "0", "--n", "3",
                 "--target", "exp", "--rate", "3")
    payload = json.loads(cp.stdout)
    assert payload["coeffs"][2] == pytest.approx(1, abs=1e-10)
    assert payload["error"] < 1e-10


def test_plot_data_golden_bytes():
    for family, golden in (("a", "fig_a_n5.csv"), ("t", "fig_t_n5.csv")):
        cp = run_cli("plot-data", "--family", family, "--n", "5", "--points", "512")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == (GOLDEN / golden).read_text()


def test_plot_data_endpoint_identity():
    cp = run_cli("plot-data", "--family", "a", "--n", "5", "--points", "512")
    last = cp.stdout.strip().splitlines()[-1].split(",")
    assert float(last[0]) == 1.0
    for k in range(1, 6):
        assert abs(float(last[k]) - (-1) ** (5 - k)) < 1e-12


def test_repeated_runs_byte_identical():
    args = ("plot-data", "--family", "t", "--n", "4", "--points", "64")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second
    vargs = ("verify", "--suite", "zfun", "--nmax", "2")
    assert run_cli(*vargs).stdout == run_cli(*vargs).stdout


def test_out_file(tmp_path):
    out = tmp_path / "c.csv"
    cp = run_cli("coeffs", "--family", "a", "--n", "2", "--k", "1",
                 "--out", str(out))
    assert cp.returncode == 0
    assert out.read_text() == "i,coeff\n0,0\n1,3\n2,-4\n"


def test_usage_error_exit_2():
    assert run_cli("coeffs", "--family", "ajp", "--n", "2", "--bogus").returncode == 2
    assert run_cli("unknown-command").returncode == 2
    # missing required flags for the family is also a usage error
    assert run_cli("coeffs", "--family", "ajp", "--n", "2").returncode == 2


def test_computational_failure_exit_1():
    # Gauss-Jacobi weight with a = -1 diverges
    cp = run_cli("quad", "--family", "ajp", "--alpha", "-1", "--beta", "0",
                 "--n", "0", "--m", "2")
    assert cp.returncode == 1
    err = json.loads(cp.stderr)
    assert err["error"] == "DivergenceError"
    assert "message" in err


def test_tabulate_families():
    cp = run_cli("tabulate", "--family", "a", "--n", "2", "--k", "1",
                 "--points", "3")
    assert cp.stdout.splitlines()[0] == "x,value"
    assert len(cp.stdout.strip().splitlines()) == 4
    cp = run_cli("tabulate", "--family", "exp-a", "--n", "2", "--k", "1",
                 "--points", "3", "--tmax", "2")
    assert cp.stdout.splitlines()[0] == "t,value"
    cp = run_cli("tabulate", "--family", "z", "--n", "2", "--omega", "1",
                 "--points", "3")
    header = cp.stdout.splitlines()[0]
    assert header == "t,Z20,Z21,Z22"


def test_tabulate_exact_mode_rational_grid():
    cp = run_cli("tabulate", "--family", "ajp", "--alpha", "0", "--beta", "0",
                 "--n", "1", "--k", "0", "--points", "3", "--mode", "exact")
    assert cp.stdout == "x,value\n0,2\n1/2,1/2\n1,-1\n"


@pytest.mark.parametrize("points", ["1", "0", "-4"])
def test_too_few_points_is_usage_error(points):
    cp = run_cli("tabulate", "--family", "ajp", "--alpha", "0", "--beta", "0",
                 "--n", "3", "--points", points)
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert "at least 2 points" in cp.stderr
    assert run_cli("plot-data", "--family", "a", "--n", "2",
                   "--points", points).returncode == 2


def test_verify_that_runs_nothing_is_usage_error():
    cp = run_cli("verify", "--nmax", "-3")
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert "suite core" in cp.stderr and "--nmax -3" in cp.stderr
    cp = run_cli("verify", "--suite", "marginal", "--nmax", "0")
    assert cp.returncode == 2
    assert "suite marginal" in cp.stderr and "--nmax 0" in cp.stderr


def test_float_overflow_exit_1_with_typed_error():
    cp = run_cli("coeffs", "--family", "ajp", "--alpha", "1.5", "--beta", "0.7",
                 "--n", "200", "--mode", "float")
    assert cp.returncode == 1
    err = json.loads(cp.stderr)
    assert err["error"] == "CoefficientOverflowError"
    assert "n=200" in err["message"] and "alpha = 1.5" in err["message"]
