"""The one float evaluator of member values, polycore.jacobi_rows, against
exact rational arithmetic.

Every float member value comes from the x-form three-term recurrence: the
pointwise API (ajp_eval, shifted_jacobi, endpoint_sign) at float parameters
or a float x, tabulate --mode float for the ajp, a and t families, plot-data,
and every exponential and Z value (e_eval and the Z systems' associated
function included), one kernel call per tabulated grid. The oracle is the exact member at the binary values of the
parameters, evaluated at the same float x taken as a Fraction and rounded
once; each error is relative to the member's largest |value| on the grid.
Float Horner on the expanded coefficients, which these routes used before,
is off by 2e5 at n = 30 and by 4e13 at n = 40 here.
"""

import csv
import io
import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from altpoly import cli, exppoly, marginal, polycore, verify
from altpoly.errors import RecurrenceError, ValueRangeError
from altpoly.exppoly import (ExpPolySystem, e_eval, ea_derivative_relation_residual, ea_eval,
                             et_eval)
from altpoly.marginal import MarginalKind, a_coefficients, plot_table, t_coefficients
from altpoly.poly import DensePoly
from altpoly.polycore import (
    PolyParams,
    ajp_coefficients,
    ajp_eval,
    endpoint_sign,
    jacobi_rows,
    shifted_jacobi,
    shifted_jacobi_coefficients,
)
from altpoly.zfun import etilde_eval, rational_candidates, whole_candidates, z_build

GOLDEN = Path(__file__).parent / "golden"
GRID = [i / 64 for i in range(65)]
TOL = 1e-13


def relative_error(got, poly, xs):
    """max |got - exact rounded once| over xs, over the largest exact |value|."""
    want = [float(poly(F(x))) for x in xs]
    return max(abs(g - w) for g, w in zip(got, want)) / max(abs(w) for w in want)


def run_main(capsys, *args):
    """cli.main in process: (exit code, stdout, stderr)."""
    code = cli.main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_columns(text):
    """The columns of a CSV text after its header, as float lists."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [[float(v) for v in col] for col in zip(*rows)]


# ------------------------------------------- the pointwise API at float input

@pytest.mark.parametrize("n", [20, 30, 40, 60])
def test_endpoint_sign_of_a_float_member(n):
    for k in (0, 3):
        assert endpoint_sign(PolyParams(0.5, 0.5, n, k)) == (-1) ** (n - k)


@pytest.mark.parametrize("n", [20, 30, 40, 60])
def test_ajp_eval_at_float_parameters_against_exact_member(n):
    exact = ajp_coefficients(PolyParams(F(1, 2), F(1, 2), n, 0))
    got = [ajp_eval(PolyParams(0.5, 0.5, n, 0), x) for x in GRID]
    assert relative_error(got, exact, GRID) < TOL
    # the exact member at exact parameters and a float x takes the same route
    got = [ajp_eval(PolyParams(F(1, 2), F(1, 2), n, 0), x) for x in GRID]
    assert relative_error(got, exact, GRID) < TOL


def test_ajp_eval_at_x_1_n40():
    # float Horner on the expanded coefficients returned -4.3e13 here
    want = float(ajp_coefficients(PolyParams(F(1, 2), F(1, 2), 40, 0))(F(1)))
    assert ajp_eval(PolyParams(0.5, 0.5, 40, 0), 1.0) == pytest.approx(want, rel=1e-13)
    assert 7.1 < want < 7.3


@pytest.mark.parametrize("n", [20, 30, 40, 60])
def test_shifted_jacobi_at_float_parameters_against_exact(n):
    exact = shifted_jacobi_coefficients(n, F(3, 2), F(1, 2))
    got = [shifted_jacobi(n, 1.5, 0.5, x) for x in GRID]
    assert relative_error(got, exact, GRID) < TOL
    if n == 40:
        # float Horner returned 3.34 here
        assert shifted_jacobi(40, 1.5, 0.5, 0.3) == pytest.approx(
            float(exact(F(0.3))), rel=1e-13, abs=1e-13)


def test_exact_parameters_at_an_exact_x_stay_exact():
    p = PolyParams(F(1, 2), F(3, 2), 7, 2)
    assert ajp_eval(p, F(1, 3)) == ajp_coefficients(p)(F(1, 3))
    assert isinstance(ajp_eval(p, F(1, 3)), F)
    assert shifted_jacobi(5, F(1, 2), 0, F(1, 3)) == shifted_jacobi_coefficients(
        5, F(1, 2), 0)(F(1, 3))
    assert ajp_eval(PolyParams(0.5, 0.5, 4, 5), 0.3) == 0.0     # the sentinel member


# ------------------------------------------------ the CLI's float members

def exact_member(family, n, k):
    if family == "ajp":
        return ajp_coefficients(PolyParams(F(1, 2), F(1, 2), n, k))
    return (a_coefficients if family == "a" else t_coefficients)(n, k)


@pytest.mark.parametrize("n", [20, 30, 60])
@pytest.mark.parametrize("family", ["ajp", "a", "t"])
def test_tabulate_float_against_exact_member(capsys, family, n):
    params = ("--alpha", "1/2", "--beta", "1/2") if family == "ajp" else ()
    code, out, err = run_main(capsys, "tabulate", "--family", family, *params, "--n", n,
                              "--k", 3, "--points", 65, "--mode", "float")
    assert code == 0, err
    xs, values = csv_columns(out)
    assert xs == GRID
    assert relative_error(values, exact_member(family, n, 3), xs) < TOL


@pytest.mark.parametrize("n", [20, 30, 60])
@pytest.mark.parametrize("family", ["a", "t"])
def test_plot_data_against_exact_members(capsys, family, n):
    code, out, err = run_main(capsys, "plot-data", "--family", family, "--n", n,
                              "--points", 33)
    assert code == 0, err
    xs, *columns = csv_columns(out)
    assert len(columns) == n
    for k, values in enumerate(columns, start=1):
        assert relative_error(values, exact_member(family, n, k), xs) < TOL, k


@pytest.mark.parametrize("family,kind", [("a", MarginalKind.A), ("t", MarginalKind.T)])
def test_golden_figure_data_is_the_exact_member_to_1e14(family, kind):
    xs, *columns = csv_columns((GOLDEN / f"fig_{family}_n5.csv").read_text())
    assert len(xs) == 512 and len(columns) == 5
    assert xs == [row[0] for row in plot_table(kind, 5, 512)]
    for k, values in enumerate(columns, start=1):
        member = exact_member(family, 5, k)
        assert max(abs(F(v) - member(F(x))) for x, v in zip(xs, values)) < 1e-14, k


def test_no_float_member_value_reaches_float_horner(monkeypatch, capsys):
    horner = DensePoly.__call__

    def exact_only(self, x):
        if isinstance(x, float):
            raise AssertionError(f"float Horner at x = {x!r}")
        return horner(self, x)

    monkeypatch.setattr(DensePoly, "__call__", exact_only)
    for args in (("tabulate", "--family", "ajp", "--alpha", "1/2", "--beta", "1/2"),
                 ("tabulate", "--family", "a"), ("tabulate", "--family", "t")):
        code, out, err = run_main(capsys, *args, "--n", 6, "--k", 2, "--points", 9,
                                  "--mode", "float")
        assert code == 0 and len(out.splitlines()) == 10, err
    for family in ("a", "t"):
        code, out, err = run_main(capsys, "plot-data", "--family", family, "--n", 4,
                                  "--points", 9)
        assert code == 0 and len(out.splitlines()) == 10, err
        assert len(plot_table(MarginalKind.A if family == "a" else MarginalKind.T, 4, 9)) == 9
    assert isinstance(ajp_eval(PolyParams(0.5, 0.5, 6, 2), 0.3), float)
    assert isinstance(ajp_eval(PolyParams(F(1, 2), F(1, 2), 6, 2), 0.3), float)
    assert isinstance(shifted_jacobi(6, 1.5, 0.5, 0.3), float)
    assert isinstance(shifted_jacobi(6, F(3, 2), F(1, 2), 0.3), float)
    assert endpoint_sign(PolyParams(0.5, 0.5, 6, 2)) == 1


# --------------------------------------- the exponential and Z families

def test_no_exponential_or_z_value_reaches_horner(monkeypatch, capsys):
    def refuse(self, x):
        raise AssertionError(f"Horner at x = {x!r}")

    monkeypatch.setattr(DensePoly, "__call__", refuse)
    system = ExpPolySystem(F(5, 2), F(1, 2), 6)
    for k in range(8):
        assert isinstance(e_eval(system, k, 0.4), float)
    assert z_build(8, F(1, 4), whole_candidates(64)).alpha_n == 22
    assert z_build(5, 1, rational_candidates(64)).alpha_n == F(161, 3)
    for args in (("--family", "exp", "--alpha", "5/2", "--beta", "1/2", "--k", 0),
                 ("--family", "exp-t", "--k", 2), ("--family", "z", "--omega", "1/2")):
        code, out, err = run_main(capsys, "tabulate", *args, "--n", 4, "--points", 9)
        assert code == 0 and len(out.splitlines()) == 10, err


def kernel_calls(monkeypatch):
    """The point counts of the jacobi_rows calls made through polycore,
    marginal.member_rows and exppoly.member_values."""
    calls, kernel = [], polycore.jacobi_rows

    def counted(a, b, n, xs, *rows):
        calls.append(len(xs))
        return kernel(a, b, n, xs, *rows)

    for module in (polycore, marginal, exppoly):
        monkeypatch.setattr(module, "jacobi_rows", counted)
    return calls


@pytest.mark.parametrize("family,params,value", [
    ("exp", ("--alpha", "3/2", "--beta", "1/4"),
     lambda k, t: e_eval(ExpPolySystem(F(3, 2), F(1, 4), 7), k, t)),
    ("exp-a", (), lambda k, t: ea_eval(7, k, t)),
    ("exp-t", (), lambda k, t: et_eval(7, k, t))], ids=["exp", "exp-a", "exp-t"])
def test_exp_tabulate_is_one_kernel_call_equal_to_pointwise(monkeypatch, capsys, family,
                                                            params, value):
    for k in range(9 if family == "exp" else 8):
        calls = kernel_calls(monkeypatch)
        code, out, err = run_main(capsys, "tabulate", "--family", family, *params, "--n", 7,
                                  "--k", k, "--points", 33, "--tmax", 3)
        assert code == 0, err
        assert calls == ([33] if k <= 7 else [])
        ts, values = csv_columns(out)
        assert values == [value(k, t) for t in ts], k


def test_z_tabulate_is_one_kernel_call_equal_to_the_spec(monkeypatch, capsys):
    calls = kernel_calls(monkeypatch)
    code, out, err = run_main(capsys, "tabulate", "--family", "z", "--omega", "1/2",
                              "--n", 3, "--points", 17)
    assert code == 0, err
    assert calls == [1, 17]         # z_build's endpoint check, then the grid
    ts, *columns = csv_columns(out)
    spec = z_build(3, F(1, 2), whole_candidates(64))
    assert columns[0] == [spec.associated_eval(t) for t in ts]
    for k in range(1, 4):
        assert columns[k] == [spec.member_eval(k, t) for t in ts], k


# ------------------------------------------------------- the kernel itself

def test_float_member_values_row_to_n60():
    summary = verify.run_rows({"float-member-values": 60})
    assert summary["total"] == 280
    assert not summary["failures"]


@pytest.mark.parametrize("lo,hi", [(0, 0), (0, 3), (2, 5), (4, 9), (9, 9), (3, 12), (12, 12)])
def test_a_row_range_is_those_rows_of_the_whole(lo, hi):
    xs = np.linspace(0.0, 1.0, 17)
    whole = jacobi_rows(1.5, 0.25, 12, xs)
    assert np.array_equal(jacobi_rows(1.5, 0.25, 12, xs, lo, hi), whole[lo:hi + 1])
    assert jacobi_rows(1.5, 0.25, 12, xs, 5, 4).shape == (0, 17)
    with pytest.raises(ValueError):
        jacobi_rows(1.5, 0.25, 12, xs, 5, 13)


KERNEL_GRID = (0.0, 1.0, 1e-300, 5e-324, 1 - 2 ** -53, 1e-8) + tuple(np.linspace(0, 1, 129))


@pytest.mark.parametrize("a,b,n", [(1.5, 0.25, 12), (0.5, 0.5, 40), (-0.5, -0.5, 30),
                                   (F(1, 3), F(7, 2), 9), (0, 0, 1), (22.0, 5.5, 8)])
def test_one_row_is_that_row_of_the_full_table(a, b, n):
    # numpy's power took the x * x shortcut for a one-element exponent 2 and
    # differed from row 2 of the full table by one ulp at some points
    whole = jacobi_rows(a, b, n, KERNEL_GRID)
    for k in range(n + 1):
        assert np.array_equal(jacobi_rows(a, b, n, KERNEL_GRID, k, k)[0], whole[k]), k


def python_power(x: float, k: int) -> float:
    """x^k as the running product ((x x) x) ..., in Python floats."""
    p = 1.0
    for _ in range(k):
        p *= x
    return p


@pytest.mark.parametrize("a,b,n", [(1.5, 0.25, 12), (0.5, 0.5, 40), (-0.5, -0.5, 7)])
def test_power_factor_is_the_running_product(a, b, n):
    # row k is x^k times row 0 of the kernel at (a + 2k, b, n - k), whose
    # factor is 1; numpy's CPU-dispatched power differed from it in the
    # last bit at some points for k = 2..5
    for k in range(n + 1):
        bare = jacobi_rows(a + 2 * k, b, n - k, KERNEL_GRID, 0, 0)[0]
        want = [p * python_power(x, k) for p, x in zip(bare.tolist(), KERNEL_GRID)]
        assert jacobi_rows(a, b, n, KERNEL_GRID, k, k)[0].tolist() == want, k


def test_a_vanishing_step_denominator_is_refused():
    # P_4^(-2, 0): the degree-2 step divides by d + a + b = 0
    with pytest.raises(RecurrenceError, match="degree 2 for a = -2, b = 0, m = 4"):
        jacobi_rows(-2, 0, 4, [0.5])
    # the row k = 1, P_3^(-2, -1), divides by d + a + b = 0 at degree 3; the
    # other rows do not, and a range without that row returns
    with pytest.raises(RecurrenceError, match="degree 3 for a = -2, b = -1, m = 3"):
        jacobi_rows(-4, -1, 4, [0.5])
    assert jacobi_rows(-4, -1, 4, [0.5], 0, 0).shape == (1, 1)
    assert jacobi_rows(-4, -1, 4, [0.5], 2).shape == (3, 1)


def test_a_value_that_is_not_finite_is_refused():
    with pytest.raises(ValueRangeError, match="a = 1e\\+200, b = 0, m = 3"):
        jacobi_rows(1e200, 0, 3, [0.5])
    with pytest.raises(ValueRangeError, match=f"a = {10 ** 400}, b = 0, m = 3"):
        jacobi_rows(10 ** 400, 0, 3, [0.5])
    with pytest.raises(ValueRangeError, match="m = 2"):
        jacobi_rows(0.5, 0.5, 2, [math.nan])
    # a point that is not finite is named, whichever entry point passes it on
    system = ExpPolySystem(1, 0, 3)
    for call, point in ((lambda: e_eval(system, 1, math.nan), "nan"),
                        (lambda: jacobi_rows(1, 0, 3, [math.inf]), "inf"),
                        (lambda: etilde_eval(1, 0, 3, 1, math.nan), "nan"),
                        (lambda: ajp_eval(PolyParams(1, 0, 3, 0), math.nan), "nan"),
                        (lambda: shifted_jacobi(3, 1, 0, math.nan), "nan")):
        with pytest.raises(ValueRangeError, match=f"not finite at the point x = {point} for"):
            call()


def test_a_point_off_the_semi_axis_is_refused():
    # t < 0 is x = exp(-t) > 1, outside the members' [0, 1]: every
    # semi-axis evaluator refuses it by name, -inf included; -0.0 answers
    system = ExpPolySystem(1, 0, 3)
    spec = z_build(3, 0, whole_candidates(64))
    calls = [lambda t: e_eval(system, 1, t), lambda t: ea_eval(3, 1, t),
             lambda t: et_eval(3, 1, t), lambda t: spec.member_eval(1, t),
             lambda t: spec.member_matrix([0.5, t]), lambda t: spec.associated_eval(t),
             lambda t: spec.rows([t]), lambda t: ea_derivative_relation_residual(3, 1, t)]
    for call in calls:
        for t, shown in ((-1.0, "-1.0"), (-math.inf, "-inf"), (-5e-324, "-5e-324")):
            message = f"^exponential members live on t >= 0, got t = {shown}$"
            with pytest.raises(ValueError, match=message) as info:
                call(t)
            assert type(info.value) is ValueError
        assert np.array_equal(call(-0.0), call(0.0))
    # the scaled member names the caller's t, not lambda_max * t
    with pytest.raises(ValueError, match="^exponential members live on t >= 0, got t = -1.0$"):
        etilde_eval(1, 0, 3, 1, -1.0)
    assert etilde_eval(1, 0, 3, 1, -0.0) == etilde_eval(1, 0, 3, 1, 0.0)


def test_tabulate_float_at_a_huge_exponent_exits_1_with_typed_error(capsys):
    code, out, err = run_main(capsys, "tabulate", "--mode", "float", "--alpha", "1e200",
                              "--beta", "0", "--n", "3")
    assert code == 1 and out == ""
    err = json.loads(err)
    assert err["error"] == "ValueRangeError"
    assert "a = 1e+200, b = 0.0, m = 3" in err["message"]
