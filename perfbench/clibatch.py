"""The cli-batch workload: sequential cold ``python -m altpoly`` runs.

Each op starts a fresh interpreter, so every op pays interpreter start and
package import, as a batch user does. At most one child runs at a time.
A valid command must exit 0 and an invalid one 2; any other exit code is a
refusal, and a matching exit code with output that fails its oracle check is
a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction as F

import oracles as O
from workloads import (WRONG, Op, Strata, rel_vec_err, rule_moment_err, semi_axis_err,
                       z_refuses, zeros_err)

CHILD_TIMEOUT_S = 60


class ExitMismatch(Exception):
    """The command exited with another code than expected."""


class Runner:
    """Runs ``python -m altpoly`` children against the checkout's sources."""

    def __init__(self, root, env):
        self.root, self.env = root, env

    def __call__(self, argv, expected_code=0):
        cp = subprocess.run([sys.executable, "-m", "altpoly", *argv], cwd=self.root,
                            env=self.env, capture_output=True, text=True,
                            timeout=CHILD_TIMEOUT_S)
        if cp.returncode != expected_code:
            raise ExitMismatch(f"exit {cp.returncode}, expected {expected_code}: "
                               f"{cp.stderr.strip()[-200:]}")
        return cp.stdout


def csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_coeffs(out, want):
    _, rows = csv_rows(out)
    return 0.0 if tuple(F(c) for _, c in rows) == O.strip(want) else WRONG


def check_tabulate(out, want):
    coeffs, points = want
    _, rows = csv_rows(out)
    if len(rows) != points:
        return WRONG
    ok = all(F(v) == O.poly_value(coeffs, F(x)) for x, v in rows)
    return 0.0 if ok else WRONG


def check_verify(out, _want):
    summary = json.loads(out)
    return 0.0 if summary["total"] > 0 and summary["failed"] == 0 else WRONG


def check_zbuild(out, want):
    if want is None:
        return WRONG
    got = json.loads(out)
    alpha, lam = want
    if got["alpha_n"] != float(alpha):
        return WRONG
    return abs(got["gamma_n"] - lam) / lam


def check_project(out, want):
    got = json.loads(out)
    coeffs, norm = want
    return max(rel_vec_err(got["coeffs"], coeffs), got["error"] / norm)


def check_plot(out, want):
    _, rows = csv_rows(out)
    got = [float(v) for row in rows for v in row[1:]]
    return rel_vec_err(got, want)


def plot_values(family, n, points):
    member = O.a_member if family == "a" else O.t_member
    return [float(O.poly_value(member(n, k), F(i, points - 1)))
            for i in range(points) for k in range(1, n + 1)]


# All five are usage errors and must exit 2; when this benchmark was written
# the first three exited with 1, 0 and 0.
USAGE_CASES = (
    ("tabulate", "--family", "ajp", "--alpha", "0", "--beta", "0", "--n", "3", "--points", "1"),
    ("tabulate", "--family", "ajp", "--alpha", "0", "--beta", "0", "--n", "3", "--points", "0"),
    ("verify", "--nmax", "-3"),
    ("coeffs", "--family", "exp", "--n", "2"),
    ("zeros", "--family", "ajp", "--alpha", "1", "--beta", "0", "--n", "2"),
)
HALVES = tuple(F(i, 2) for i in range(-1, 5))


class CliOps:
    """Op factories, one per subcommand plus the usage-error kind."""

    def __init__(self, run: Runner, rng: Strata):
        self.run, self.rng = run, rng

    def op(self, kind, size, argv, expect, check, is_float=False, code=0, refuses=False,
           defect=False):
        return Op(kind, size, lambda: self.run(argv, code), expect, check, is_float=is_float,
                  refuses=refuses, defect=defect or refuses, params={"argv": " ".join(argv)})

    def coeffs(self, n):
        rng = self.rng.scope("coeffs", n)
        k = rng.randint(0, n)
        family = rng.choice(("ajp", "ajp", "a", "t"))
        if family == "ajp":
            a, b = rng.scope("alpha").choice(HALVES[1:]), rng.scope("beta").choice(HALVES[1:])
            argv = ["coeffs", "--family", "ajp", f"--alpha={a}", f"--beta={b}"]
            want = lambda: O.member_coeffs(a, b, n, k)
        else:
            argv = ["coeffs", "--family", family]
            want = lambda: (O.a_member if family == "a" else O.t_member)(n, k)
        return self.op("coeffs", n, argv + ["--n", str(n), "--k", str(k)], want, check_coeffs)

    def tabulate(self, n):
        rng = self.rng.scope("tabulate", n)
        a, b = rng.scope("alpha").choice(HALVES[1:]), rng.scope("beta").choice(HALVES[1:])
        k, points = rng.randint(0, n), rng.randint(5, 17)
        argv = ["tabulate", "--family", "ajp", f"--alpha={a}", f"--beta={b}",
                "--n", str(n), "--k", str(k), "--points", str(points)]
        return self.op("tabulate", n, argv, lambda: (O.member_coeffs(a, b, n, k), points),
                       check_tabulate)

    def zeros(self, n):
        rng = self.rng.scope("zeros", n)
        a, b = F(rng.randint(2, 6), 2), F(rng.randint(0, 2), 2)
        argv = ["zeros", "--family", "exp", f"--alpha={a}", f"--beta={b}", "--n", str(n)]
        return self.op("zeros", n, argv, lambda: O.zeros_x(a, b, n),
                       lambda out, want: zeros_err([float(r[1]) for r in csv_rows(out)[1]], want),
                       is_float=True, refuses=n >= 21, defect=n >= 11)

    def quad(self, size):
        rng = self.rng.scope("quad", size)
        family, m = size
        if family == "exp":
            argv = ["quad", "--family", "exp", "--n", str(m)]
            check = lambda out, _w: semi_axis_err(*zip(*[(float(r[2]), float(r[4]))
                                                         for r in csv_rows(out)[1]]), m)
            return self.op("quad", m, argv, lambda: None, check, is_float=True, defect=m >= 9)
        a, b = rng.scope("alpha").choice(HALVES), rng.scope("beta").choice(HALVES)
        argv = ["quad", "--family", "ajp", f"--alpha={a}", f"--beta={b}",
                "--n", "1", "--m", str(m)]
        check = lambda out, mus: rule_moment_err(
            *zip(*[(float(x), float(w)) for x, w in csv_rows(out)[1]]), mus)
        return self.op("quad", m, argv, lambda: O.moments(a, b, 2 * m), check, is_float=True)

    def verify(self, case):
        suite, nmax = case
        argv = ["verify", "--suite", suite, "--nmax", str(nmax)]
        return self.op("verify", nmax, argv, lambda: None, check_verify)

    def zbuild(self, size):
        n, omega = size
        argv = ["zbuild", "--n", str(n), "--omega", str(omega)]
        return self.op("zbuild", n, argv, lambda: O.z_choice(n, omega), check_zbuild,
                       is_float=True, refuses=z_refuses(n, omega))

    def project(self, n):
        rng = self.rng.scope("project", n)
        a, b = F(rng.randint(1, 6), 2), F(rng.randint(0, 3), 2)
        r = rng.scope("rate").randint(1, n)
        argv = ["project", f"--alpha={a}", f"--beta={b}", "--n", str(n),
                "--target", "exp", "--rate", str(r)]
        return self.op("project", n, argv,
                       lambda: (O.expansion_coeffs(a, b, n, r), O.target_norm(a, b, r)),
                       check_project, is_float=True, defect=n >= 11)

    def plot_data(self, n):
        rng = self.rng.scope("plot_data", n)
        family, points = rng.choice("at"), rng.choice((33, 65, 129))
        argv = ["plot-data", "--family", family, "--n", str(n), "--points", str(points)]
        return self.op("plot-data", n, argv, lambda: plot_values(family, n, points),
                       check_plot, is_float=True)

    def usage(self, case):
        return self.op("usage", 0, list(case), lambda: None, lambda _o, _w: 0.0, code=2,
                       defect=case in USAGE_CASES[:3])


# A pass is PASS_ROUNDS rounds over PASS; round r runs each entry at its
# r-th size and the seed draws the other inputs. For zeros, quad, zbuild,
# project and usage the second entry holds inputs the library refused or
# answered wrongly when this was written.
PASS = [
    ("coeffs", (6, 14)),
    ("tabulate", (5, 10)),
    ("zeros", (5, 8)),
    ("zeros", (14, 22)),
    ("quad", (("ajp", 20), ("exp", 5))),
    ("quad", (("exp", 12), ("exp", 18))),
    ("verify", (("core", 2), ("exp", 3))),
    ("zbuild", ((4, F(0)), (6, F(1, 2)))),
    ("zbuild", ((7, F(1, 2)), (8, F(1)))),
    ("project", (5, 8)),
    ("project", (14, 20)),
    ("plot_data", (4, 7)),
    ("usage", USAGE_CASES[3:]),
    ("usage", USAGE_CASES[:2]),
    ("usage", USAGE_CASES[2:3]),
]
KINDS = ("coeffs", "tabulate", "zeros", "quad", "verify", "zbuild", "project", "plot-data",
         "usage")
PASS_ROUNDS = 2


def stream(run: Runner, seed: int):
    """One pass of the CLI workload: PASS_ROUNDS rounds over PASS."""
    ops = CliOps(run, Strata(f"cli-batch:{seed}"))
    for round_ in range(PASS_ROUNDS):
        for name, sizes in PASS:
            yield getattr(ops, name)(sizes[round_ % len(sizes)])


# --------------------------------------------------------- warm, in-process

WARM_ARGV = {
    "coeffs": ["coeffs", "--family", "ajp", "--alpha", "0", "--beta", "0", "--n", "4"],
    "tabulate": ["tabulate", "--family", "ajp", "--alpha", "0", "--beta", "0", "--n", "4",
                 "--points", "5"],
    "zeros": ["zeros", "--family", "exp", "--alpha", "1", "--beta", "0", "--n", "4"],
    "quad": ["quad", "--family", "exp", "--n", "4"],
    "verify": ["verify", "--suite", "zfun", "--nmax", "1"],
    "zbuild": ["zbuild", "--n", "2", "--omega", "0"],
    "project": ["project", "--alpha", "1", "--beta", "0", "--n", "4"],
    "plot-data": ["plot-data", "--family", "a", "--n", "3", "--points", "9"],
}


def main_in_process(cli, argv) -> int:
    """Exit code of ``cli.main(argv)`` with its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def warm(cli):
    """One in-process call per op kind, the CLI workload's set-up."""
    for argv in WARM_ARGV.values():
        main_in_process(cli, argv)
    main_in_process(cli, USAGE_CASES[-1])

