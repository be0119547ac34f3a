"""Batch command-line front end.

Subcommands: tabulate, coeffs, zeros, quad, verify, zbuild, project,
plot-data. Output is CSV or JSON on stdout (or --out), byte-deterministic
for fixed inputs: floats print in shortest round-trip form, exact rationals
as p/q. Exit codes: 0 success, 1 computational failure (machine-readable
JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import exppoly, marginal, verify, zfun
from .errors import AltpolyError
from .exact import PiRational
from .marginal import MarginalKind
from .poly import DensePoly
from .polycore import PolyParams, ajp_coefficients
from .quad import gauss_jacobi_rule

AJP_FAMILIES = {"ajp", "a", "t"}
EXP_FAMILIES = {"exp", "exp-a", "exp-t"}


def _fmt(value) -> str:
    """Deterministic scalar rendering: p/q for rationals, shortest
    round-trip for floats."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, Fraction, PiRational)):
        return str(value)
    return repr(value)


def _parse_scalar(text: str, mode: str):
    """Numeric flag parsing: decimal and p/q strings become exact rationals
    unless float mode is forced."""
    frac = Fraction(text)
    if mode == "float":
        return float(frac)
    return frac


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _family_poly(family: str, alpha, beta, n: int, k: int) -> DensePoly:
    if family == "ajp":
        if alpha is None or beta is None:
            raise UsageError("--alpha and --beta are required for family ajp")
        return ajp_coefficients(PolyParams(alpha, beta, n, k))
    if family == "a":
        return marginal.a_coefficients(n, k)
    if family == "t":
        return marginal.t_coefficients(n, k)
    raise UsageError(f"family {family!r} has no plain-polynomial coefficients")


class UsageError(Exception):
    pass


def cmd_coeffs(args) -> str:
    poly = _family_poly(args.family, args.alpha, args.beta, args.n, args.k)
    coeffs = list(poly.coeffs) or [0]
    if args.mode == "float":
        coeffs = [float(c) for c in coeffs]
    if args.format == "json":
        return json.dumps({"family": args.family, "n": args.n, "k": args.k,
                           "coeffs": [_fmt(c) for c in coeffs]}) + "\n"
    return _csv(["i", "coeff"], list(enumerate(coeffs)))


def cmd_tabulate(args) -> str:
    n, k = args.n, args.k
    if args.family in AJP_FAMILIES:
        poly = _family_poly(args.family, args.alpha, args.beta, n, k)
        rows = []
        for i in range(args.points):
            if args.mode == "exact" and poly.mode == "exact":
                x = Fraction(i, args.points - 1)
            else:
                x = i / (args.points - 1)
            rows.append((x, poly(x)))
        return _csv(["x", "value"], rows)
    if args.family in EXP_FAMILIES:
        if args.family == "exp":
            if args.alpha is None or args.beta is None:
                raise UsageError("--alpha and --beta are required for family exp")
            sys_ = exppoly.ExpPolySystem(args.alpha, args.beta, n)
            value_at = lambda t: exppoly.e_eval(sys_, k, t)
        elif args.family == "exp-a":
            value_at = lambda t: exppoly.ea_eval(n, k, t)
        else:
            value_at = lambda t: exppoly.et_eval(n, k, t)
        rows = []
        for i in range(args.points):
            t = args.tmax * i / (args.points - 1)
            rows.append((t, float(value_at(t))))
        return _csv(["t", "value"], rows)
    if args.family == "z":
        if args.omega is None:
            raise UsageError("--omega is required for family z")
        spec = zfun.z_build(n, args.omega, zfun.whole_candidates(args.limit))
        header = ["t"] + [f"Z{n}{j}" for j in range(0, n + 1)]
        rows = []
        for i in range(args.points):
            t = i / (args.points - 1)
            row = [t, spec.associated_eval(t)]
            row += [spec.member_eval(j, t) for j in range(1, n + 1)]
            rows.append(tuple(row))
        return _csv(header, rows)
    raise UsageError(f"cannot tabulate family {args.family!r}")


def cmd_zeros(args) -> str:
    if args.family != "exp":
        raise UsageError("zeros are computed for --family exp")
    if args.alpha is None or args.beta is None:
        raise UsageError("--alpha and --beta are required")
    zs = exppoly.e_zeros(args.alpha, args.beta, args.n)
    pairs = sorted(zip(zs.source_x, zs.lambdas))
    if args.format == "json":
        return json.dumps({"alpha": zs.alpha, "beta": zs.beta, "n": zs.n,
                           "x": [p[0] for p in pairs],
                           "t": [p[1] for p in pairs]}) + "\n"
    rows = [(s, x, t) for s, (x, t) in enumerate(pairs, start=1)]
    return _csv(["s", "x", "t"], rows)


def cmd_quad(args) -> str:
    if args.family == "exp":
        rows = exppoly.rule_table(args.n)
        if args.format == "json":
            return json.dumps({"n": args.n, "rows": [
                {"s": s, "x": x, "t": t, "w": w, "v": v}
                for s, x, t, w, v in rows]}) + "\n"
        return _csv(["s", "x_s", "t_s", "w_s", "v_s"], rows)
    if args.family == "ajp":
        if args.alpha is None or args.beta is None:
            raise UsageError("--alpha and --beta are required for family ajp")
        rule = gauss_jacobi_rule(args.m, args.alpha, args.beta)
        if args.format == "json":
            return rule.to_json() + "\n"
        return rule.to_csv()
    raise UsageError("quad supports --family ajp (Gauss-Jacobi) or exp")


def cmd_verify(args) -> tuple[str, int]:
    try:
        summary = verify.run_suite(args.suite, args.nmax)
    except verify.NoChecksError as exc:
        raise UsageError(str(exc)) from exc
    text = json.dumps(summary, indent=2) + "\n"
    return text, (0 if summary["failed"] == 0 else 1)


def cmd_zbuild(args) -> str:
    if args.candidates == "real":
        spec = zfun.z_build_real(args.n, args.omega)
    elif args.candidates == "rational":
        spec = zfun.z_build(args.n, args.omega,
                            zfun.rational_candidates(args.limit, 4))
    else:
        spec = zfun.z_build(args.n, args.omega, zfun.whole_candidates(args.limit))
    if args.format == "csv":
        rows = [(k, lam) for k, lam in enumerate(spec.zeros.lambdas, start=1)]
        return _csv(["k", "lambda"], rows)
    return spec.to_json() + "\n"


def _target_function(args):
    rate = args.rate
    if args.target == "exp":
        return lambda t: math.exp(-rate * t)
    if args.target == "texp":
        return lambda t: t * math.exp(-rate * t)
    raise UsageError(f"unknown target {args.target!r}")


def cmd_project(args) -> str:
    sys_ = exppoly.ExpPolySystem(args.alpha, args.beta, args.n)
    result = exppoly.project(_target_function(args), sys_)
    return json.dumps({"n": args.n, "target": args.target, "rate": args.rate,
                       "coeffs": list(result.coeffs),
                       "error": result.error}) + "\n"


def cmd_plot_data(args) -> str:
    if args.family not in ("a", "t"):
        raise UsageError("plot-data supports --family a or t")
    kind = MarginalKind.A if args.family == "a" else MarginalKind.T
    rows = marginal.plot_table(kind, args.n, args.points,
                               exact=args.mode == "exact")
    fam = args.family.upper()
    header = ["x"] + [f"{fam}{args.n}{k}" for k in range(1, args.n + 1)]
    return _csv(header, [(x,) + tuple(vals) for x, vals in rows])


def _sample_count(text: str) -> int:
    """--points: a grid needs both endpoints, so at least 2 samples."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 points, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altpoly",
        description="Alternative Jacobi polynomial families, exponential "
                    "counterparts on the semi-axis, quadratures, and Z systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, family=True, params=True, kflag=True):
        if family:
            p.add_argument("--family", default="ajp",
                           choices=["ajp", "a", "t", "exp", "exp-a", "exp-t", "z"])
        if params:
            p.add_argument("--alpha", default=None)
            p.add_argument("--beta", default=None)
        p.add_argument("--n", type=int, required=True)
        if kflag:
            p.add_argument("--k", type=int, default=0)
        p.add_argument("--mode", choices=["exact", "float"], default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("coeffs", help="polynomial coefficients")
    common(p)

    p = sub.add_parser("tabulate", help="sample a family member on a grid")
    common(p)
    p.add_argument("--points", type=_sample_count, default=129)
    p.add_argument("--tmax", type=float, default=5.0)
    p.add_argument("--omega", default=None)
    p.add_argument("--limit", type=int, default=64)

    p = sub.add_parser("zeros", help="zeros of the associated function")
    common(p, kflag=False)

    p = sub.add_parser("quad", help="quadrature nodes and weights")
    common(p, kflag=False)
    p.add_argument("--m", type=int, default=8)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all",
                   choices=["core", "quad", "marginal", "exp", "zfun", "all"])
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--out", default=None)

    p = sub.add_parser("zbuild", help="build a Z or Z-tilde system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--candidates", choices=["whole", "rational", "real"],
                   default="whole")
    p.add_argument("--limit", type=int, default=64)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="json")

    p = sub.add_parser("project", help="project a target function on a system")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=["exp", "texp"], default="exp")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("plot-data", help="figure data for the marginal families")
    p.add_argument("--family", default="a", choices=["a", "t"])
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--points", type=_sample_count, default=512)
    p.add_argument("--mode", choices=["exact", "float"], default=None)
    p.add_argument("--out", default=None)

    return parser


def _resolve_mode(args):
    mode = getattr(args, "mode", None)
    if mode is None:
        mode = os.environ.get("ALTPOLY_MODE")
    if mode not in ("exact", "float"):
        # default: exact wherever parameters permit, except figure/grid data
        mode = "float" if args.command in ("plot-data",) else "exact"
    args.mode = mode
    for name in ("alpha", "beta", "omega"):
        if getattr(args, name, None) is not None:
            setattr(args, name, _parse_scalar(getattr(args, name), mode))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_mode(args)
    except ValueError as exc:
        parser.error(str(exc))
    handlers = {
        "coeffs": cmd_coeffs,
        "tabulate": cmd_tabulate,
        "zeros": cmd_zeros,
        "quad": cmd_quad,
        "zbuild": cmd_zbuild,
        "project": cmd_project,
        "plot-data": cmd_plot_data,
    }
    try:
        if args.command == "verify":
            text, code = cmd_verify(args)
        else:
            text, code = handlers[args.command](args), 0
    except UsageError as exc:
        parser.error(str(exc))
        return 2  # unreachable: parser.error exits
    except (AltpolyError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 1
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
