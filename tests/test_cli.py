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


def test_negative_rational_flag_values():
    joined = run_cli("coeffs", "--family", "ajp", "--alpha=-7/2", "--beta", "1/2",
                     "--n", "12")
    spaced = run_cli("coeffs", "--family", "ajp", "--alpha", "-7/2", "--beta", "1/2",
                     "--n", "12")
    assert joined.returncode == spaced.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout
    cp = run_cli("zeros", "--family", "exp", "--alpha", "-1/2", "--beta", "-1/2",
                 "--n", "2")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == run_cli("zeros", "--family", "exp", "--alpha=-1/2",
                                "--beta=-1/2", "--n", "2").stdout


@pytest.mark.parametrize("n", ["0", "-2"])
def test_n_below_one_is_usage_error(n):
    for args in (("zeros", "--family", "exp", "--alpha", "1", "--beta", "0"),
                 ("project", "--alpha", "1", "--beta", "0"),
                 ("zbuild", "--omega", "0"),
                 ("quad", "--family", "exp")):
        cp = run_cli(*args, "--n", n)
        assert cp.returncode == 2, args
        assert cp.stdout == ""
        assert "--n must be at least 1" in cp.stderr
    # the Gauss-Jacobi rule is sized by --m, so --n is not read there
    assert run_cli("quad", "--family", "ajp", "--alpha", "1", "--beta", "0",
                   "--n", n).returncode == 0


def test_zeros_outside_parameter_range_exit_1():
    cp = run_cli("zeros", "--family", "exp", "--alpha", "-1", "--beta", "0", "--n", "3")
    assert cp.returncode == 1
    err = json.loads(cp.stderr)
    assert err["error"] == "DivergenceError"
    assert "a = -1" in err["message"] and "m = 3" in err["message"]


def test_cli_import_leaves_scipy_out():
    cp = subprocess.run([sys.executable, "-c",
                         "import altpoly.cli, sys; assert 'scipy' not in sys.modules"],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def test_cli_import_leaves_numpy_out():
    cp = subprocess.run([sys.executable, "-c",
                         "import altpoly, altpoly.cli, altpoly.verify, sys; "
                         "assert 'numpy' not in sys.modules"],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def _imported_modules(args):
    """Exit code of a cold ``altpoly`` run and the set of modules it imported."""
    # -X importtime lists every module the run imported on stderr
    cp = subprocess.run([sys.executable, "-X", "importtime", "-m", "altpoly", *args],
                        capture_output=True, text=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in cp.stderr.splitlines()
                if line.startswith("import time:")}
    return cp.returncode, imported


@pytest.mark.parametrize("args,code", [
    (("coeffs", "--family", "ajp", "--alpha", "1/2", "--beta", "0", "--n", "4"), 0),
    (("tabulate", "--family", "ajp", "--alpha", "1", "--beta", "0", "--n", "3",
      "--points", "5"), 0),
    (("plot-data", "--family", "t", "--n", "3", "--points", "9", "--mode", "exact"), 0),
    (("verify", "--suite", "core", "--nmax", "1"), 0),
    (("coeffs", "--family", "ajp", "--n", "2", "--k", "9"), 2),
])
def test_exact_commands_leave_numpy_out(args, code):
    returncode, imported = _imported_modules(args)
    assert returncode == code
    assert "altpoly.cli" in imported
    assert "numpy" not in imported


def test_cli_import_loads_no_library_module():
    cp = subprocess.run([sys.executable, "-c",
                         "import altpoly.cli, sys; "
                         "loaded = {'altpoly.verify', 'altpoly.zfun', 'altpoly.exppoly', "
                         "'numpy'} & set(sys.modules); assert not loaded, loaded"],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


@pytest.mark.parametrize("args", [
    ("tabulate", "--family", "ajp", "--alpha", "0", "--beta", "0", "--n", "3", "--points", "1"),
    ("tabulate", "--family", "ajp", "--alpha", "0", "--beta", "0", "--n", "3", "--points", "0"),
    ("coeffs", "--family", "ajp", "--alpha", "x", "--beta", "0", "--n", "2"),
    ("tabulate", "--family", "z", "--n", "3", "--omega", "0", "--limit", "-1"),
    ("zbuild", "--n", "3"),
    ("nope",),
    ("coeffs", "--family", "exp", "--n", "2"),
    ("zeros", "--family", "ajp", "--alpha", "1", "--beta", "0", "--n", "2"),
])
def test_usage_error_imports_only_cli_and_errors(args):
    returncode, imported = _imported_modules(args)
    assert returncode == 2
    package = {name for name in imported if name.split(".")[0] == "altpoly"}
    assert "altpoly.cli" in package
    assert package <= {"altpoly", "altpoly.__main__", "altpoly.cli", "altpoly.errors"}


@pytest.mark.parametrize("family", ["ajp", "a", "t"])
def test_coeffs_imports_no_exp_zfun_or_verify(family):
    returncode, imported = _imported_modules(
        ("coeffs", "--family", family, "--alpha", "1/2", "--beta", "0", "--n", "4", "--k", "1"))
    assert returncode == 0
    assert "altpoly.polycore" in imported
    assert not {"altpoly.exppoly", "altpoly.zfun", "altpoly.verify"} & imported


@pytest.mark.parametrize("args,flag", [
    (("quad", "--family", "ajp", "--alpha", "1", "--beta", "0", "--n", "0", "--m", "0"), "--m"),
    (("quad", "--family", "ajp", "--alpha", "1", "--beta", "0", "--n", "0", "--m", "-2"), "--m"),
    (("coeffs", "--family", "ajp", "--alpha", "1", "--beta", "0", "--n", "3", "--k", "5"), "--k"),
    (("coeffs", "--family", "ajp", "--alpha", "1", "--beta", "0", "--n", "3", "--k", "-1"), "--k"),
    (("coeffs", "--family", "a", "--n", "3", "--k", "4"), "--k"),
    (("tabulate", "--family", "ajp", "--alpha", "1", "--beta", "0", "--n", "2", "--k", "4"),
     "--k"),
    (("tabulate", "--family", "exp-t", "--n", "2", "--k", "3"), "--k"),
    (("coeffs", "--family", "ajp", "--alpha", "1", "--beta", "0", "--n", "-1"), "--n"),
    (("tabulate", "--family", "exp", "--alpha", "1", "--beta", "0", "--n", "0"), "--n"),
    (("tabulate", "--family", "exp-a", "--n", "0"), "--n"),
    (("tabulate", "--family", "exp-t", "--n", "0"), "--n"),
    (("plot-data", "--n", "0"), "--n"),
    (("plot-data", "--family", "t", "--n", "-1"), "--n"),
])
def test_bad_index_and_count_flags_are_usage_errors(args, flag):
    cp = run_cli(*args)
    assert cp.returncode == 2, cp.stderr
    assert cp.stdout == ""
    assert f"error: {flag} must" in cp.stderr


@pytest.mark.parametrize("args,flag", [
    (("zbuild", "--n", "3", "--omega", "0", "--limit", "-1"), "--limit"),
    (("zbuild", "--n", "3", "--omega", "0", "--candidates", "rational", "--limit", "-1"),
     "--limit"),
    (("tabulate", "--family", "z", "--n", "3", "--omega", "0", "--limit", "-2"), "--limit"),
    (("tabulate", "--family", "exp", "--alpha", "1", "--beta", "0", "--n", "3",
      "--tmax", "-1"), "--tmax"),
    (("tabulate", "--family", "exp-a", "--n", "3", "--tmax", "0"), "--tmax"),
    (("tabulate", "--family", "exp-t", "--n", "3", "--tmax", "nan"), "--tmax"),
    (("tabulate", "--family", "exp-t", "--n", "3", "--tmax", "inf"), "--tmax"),
    (("project", "--alpha", "1", "--beta", "0", "--n", "3", "--rate", "inf"), "--rate"),
    (("project", "--alpha", "1", "--beta", "0", "--n", "3", "--rate=-inf"), "--rate"),
    (("project", "--alpha", "1", "--beta", "0", "--n", "3", "--rate", "nan"), "--rate"),
])
def test_bad_limit_and_float_flags_are_usage_errors(args, flag):
    # an empty candidate set, values at t < 0 (x > 1, outside the members'
    # domain), NaN rows, or "rate": Infinity (not JSON) are bad input
    cp = run_cli(*args)
    assert cp.returncode == 2, cp.stderr
    assert cp.stdout == ""
    assert f"error: argument {flag}: must" in cp.stderr


def test_limit_and_float_flag_edges_still_run():
    # --limit 0 is the one candidate 0, which the search reaches and refuses
    cp = run_cli("zbuild", "--n", "3", "--omega", "0", "--limit", "0")
    assert cp.returncode == 1 and "no candidate keeps" in json.loads(cp.stderr)["message"]
    cp = run_cli("tabulate", "--family", "exp-a", "--n", "2", "--k", "1", "--tmax", "1e-3",
                 "--points", "2")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[2].startswith("0.001,")


def test_index_range_edges_still_run():
    # k = n + 1 is the zero member of the ajp family
    cp = run_cli("coeffs", "--family", "ajp", "--alpha", "1", "--beta", "0",
                 "--n", "3", "--k", "4")
    assert cp.returncode == 0 and cp.stdout == "i,coeff\n0,0\n"
    assert run_cli("coeffs", "--family", "ajp", "--alpha", "1", "--beta", "0",
                   "--n", "0").returncode == 0
    assert run_cli("coeffs", "--family", "a", "--n", "3", "--k", "3").returncode == 0


@pytest.mark.parametrize("target,rate", [("exp", "-1"), ("texp", "-1"), ("exp", "-0.75")])
def test_project_divergent_target_exit_1(target, rate):
    cp = run_cli("project", "--alpha", "3/2", "--beta", "0", "--n", "3",
                 "--target", target, "--rate", rate)
    assert cp.returncode == 1
    assert cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err["error"] == "DivergenceError"
    assert "alpha = 3/2" in err["message"] and f"rate = {float(rate)}" in err["message"]


def test_project_large_n_in_span():
    cp = run_cli("project", "--alpha=-1/2", "--beta", "0", "--n", "30",
                 "--target", "exp", "--rate", "1")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["error"] < 1e-12
    # alpha + 2 rate only just positive: the target norm is finite
    cp = run_cli("project", "--alpha", "1", "--beta", "0", "--n", "3", "--rate", "-0.25")
    assert cp.returncode == 0, cp.stderr


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
    for suite in ("all", "core", "quad", "exp", "zfun"):
        cp = run_cli("verify", "--suite", suite, "--nmax", "-3")
        assert cp.returncode == 2, suite
        assert cp.stdout == ""
        assert "--nmax: must be at least 0, got -3" in cp.stderr, suite
    cp = run_cli("verify", "--suite", "marginal", "--nmax", "0")
    assert cp.returncode == 2
    assert "suite marginal" in cp.stderr and "--nmax 0" in cp.stderr


def test_negative_nmax_is_refused_before_verify_is_imported():
    returncode, imported = _imported_modules(("verify", "--suite", "quad", "--nmax", "-3"))
    assert returncode == 2
    assert "altpoly.cli" in imported and "altpoly.verify" not in imported


def test_float_overflow_exit_1_with_typed_error():
    cp = run_cli("coeffs", "--family", "ajp", "--alpha", "1.5", "--beta", "0.7",
                 "--n", "450", "--mode", "float")
    assert cp.returncode == 1
    err = json.loads(cp.stderr)
    assert err["error"] == "CoefficientOverflowError"
    assert "n=450" in err["message"] and "alpha = 1.5" in err["message"]


@pytest.mark.parametrize("args,error,names", [
    (("zeros", "--family", "exp", "--alpha", "1e200", "--beta", "0", "--n", "3"),
     "RootFindingError", f"a = {10 ** 200}, b = 0, m = 3"),
    (("quad", "--family", "ajp", "--alpha", "1e200", "--beta", "0", "--n", "1", "--m", "3"),
     "RootFindingError", f"a = {10 ** 200}, b = 0, m = 3"),
    (("zeros", "--family", "exp", "--alpha", "1e120", "--beta", "0", "--n", "3"),
     "CoefficientOverflowError", f"alpha = {10 ** 120}, beta = 0"),
    # an exact omega beyond the float range: the second exponent is refused
    pytest.param(("zbuild", "--n", "3", "--omega", "1e400"),
                 "RootFindingError", f"a = 1, b = {10 ** 400}, m = 3", id="zbuild-omega-1e400"),
])
def test_exponents_too_large_for_floats_exit_1_with_typed_error(args, error, names):
    cp = run_cli(*args)
    assert cp.returncode == 1 and cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err["error"] == error
    assert names in err["message"]


def test_quad_at_a_huge_whole_exponent_is_quick():
    cp = subprocess.run([sys.executable, "-m", "altpoly", "quad", "--family", "ajp",
                         "--alpha", "100000000", "--beta", "0", "--n", "1", "--m", "3"],
                        capture_output=True, text=True, timeout=30)
    assert cp.returncode == 0, cp.stderr
    assert len(cp.stdout.splitlines()) == 4


def test_quad_with_a_node_at_the_endpoint_exits_1_with_typed_error():
    cp = run_cli("quad", "--family", "ajp", "--alpha", "1e20", "--beta", "0", "--n", "1",
                 "--m", "3")
    assert cp.returncode == 1 and cp.stdout == ""
    err = json.loads(cp.stderr)
    assert err["error"] == "RootFindingError"
    assert f"round to 0 or 1 or coincide for a = {10 ** 20}, b = 0, m = 3" in err["message"]


def test_tabulate_exp_a_at_n30_matches_the_exact_member():
    from fractions import Fraction

    from altpoly.marginal import a_coefficients

    cp = run_cli("tabulate", "--family", "exp-a", "--n", "30", "--k", "1")
    assert cp.returncode == 0, cp.stderr
    exact = a_coefficients(30, 1)
    rows = [line.split(",") for line in cp.stdout.splitlines()[1:]]
    assert len(rows) == 129
    for t, value in rows:
        want = exact(Fraction(math.exp(-float(t))))
        assert abs(Fraction(float(value)) - want) < 1e-12, t
