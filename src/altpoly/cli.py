"""Batch command-line front end.

Subcommands: tabulate, coeffs, zeros, quad, verify, zbuild, project,
plot-data. Output is CSV or JSON on stdout (or --out), byte-deterministic
for fixed inputs: floats print in shortest round-trip form, exact rationals
as p/q. Exit codes: 0 success, 1 computational failure (machine-readable
JSON on stderr), 2 usage error.

Each handler imports the library modules it runs, so a cold start compiles
only those, and a usage error that argparse rejects imports none.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .errors import AltpolyError, DivergenceError

AJP_FAMILIES = {"ajp", "a", "t"}
EXP_FAMILIES = {"exp", "exp-a", "exp-t"}


def _fmt(value) -> str:
    """Deterministic scalar rendering: shortest round-trip for floats, p/q
    for rationals."""
    return repr(value) if isinstance(value, float) else str(value)


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


def _family_poly(family: str, alpha, beta, n: int, k: int):
    """The member as a DensePoly."""
    if family == "ajp":
        if alpha is None or beta is None:
            raise UsageError("--alpha and --beta are required for family ajp")
        from .polycore import PolyParams, ajp_coefficients
        return ajp_coefficients(PolyParams(alpha, beta, n, k))
    if family == "a":
        from .marginal import a_coefficients
        return a_coefficients(n, k)
    if family == "t":
        from .marginal import t_coefficients
        return t_coefficients(n, k)
    raise UsageError(f"family {family!r} has no plain-polynomial coefficients")


def _family_values(args, xs):
    """Float values of the member at the points xs (x = exp(-t) for the
    exponential families), as a list, from the one float evaluator: row k
    of polycore.jacobi_rows at a = alpha + 1 for ajp and a = alpha for exp,
    and of marginal.member_rows for the A and T families, whose exponential
    forms are exp-a and exp-t."""
    n, k, family = args.n, args.k, args.family
    if family not in ("ajp", "exp"):
        from .marginal import MarginalKind, member_rows
        kind = MarginalKind.A if family in ("a", "exp-a") else MarginalKind.T
        return member_rows(kind, n, xs, k, k)[0].tolist()
    if args.alpha is None or args.beta is None:
        raise UsageError(f"--alpha and --beta are required for family {family}")
    # the parameter checks of the member and of the system
    if family == "ajp":
        from .polycore import PolyParams
        a = PolyParams(args.alpha, args.beta, n, k).alpha + 1
    else:
        from .exppoly import ExpPolySystem
        a = ExpPolySystem(args.alpha, args.beta, n).alpha
    if k > n:       # the zero member that starts the downward recurrence
        return [0.0] * len(xs)
    from .polycore import jacobi_rows
    return jacobi_rows(a, args.beta, n, xs, k, k)[0].tolist()


class UsageError(Exception):
    pass


def _need_n(n: int):
    """Zeros, exponential rules, projections and Z systems need n >= 1."""
    if n < 1:
        raise UsageError(f"--n must be at least 1, got {n}")


def _need_index(family: str, n: int, k: int):
    """Members are indexed by n >= 0 and k = 0..n; the ajp and exp families
    also take k = n+1, the zero member that starts the downward recurrence.
    Exponential systems and Z systems need n >= 1."""
    if family in EXP_FAMILIES or family == "z":
        _need_n(n)
    if n < 0:
        raise UsageError(f"--n must be at least 0, got {n}")
    top = n + 1 if family in ("ajp", "exp") else n
    if not 0 <= k <= top:
        raise UsageError(f"--k must lie in 0..{top} for family {family}, got {k}")


def cmd_coeffs(args) -> str:
    _need_index(args.family, args.n, args.k)
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
    _need_index(args.family, n, k)
    if args.family in AJP_FAMILIES:
        if args.mode == "exact":
            poly = _family_poly(args.family, args.alpha, args.beta, n, k)
            xs = [Fraction(i, args.points - 1) for i in range(args.points)]
            return _csv(["x", "value"], [(x, poly(x)) for x in xs])
        xs = [i / (args.points - 1) for i in range(args.points)]
        return _csv(["x", "value"], zip(xs, _family_values(args, xs)))
    if args.family in EXP_FAMILIES:
        ts = [args.tmax * i / (args.points - 1) for i in range(args.points)]
        return _csv(["t", "value"], zip(ts, _family_values(args, [math.exp(-t) for t in ts])))
    # family z
    if args.omega is None:
        raise UsageError("--omega is required for family z")
    from . import zfun
    spec = zfun.z_build(n, args.omega, zfun.whole_candidates(args.limit))
    header = ["t"] + [f"Z{n}{j}" for j in range(0, n + 1)]
    ts = [i / (args.points - 1) for i in range(args.points)]
    return _csv(header, ([t, *vals] for t, vals in zip(ts, spec.rows(ts).T.tolist())))


def cmd_zeros(args) -> str:
    if args.family != "exp":
        raise UsageError("zeros are computed for --family exp")
    if args.alpha is None or args.beta is None:
        raise UsageError("--alpha and --beta are required")
    _need_n(args.n)
    from .exppoly import e_zeros
    zs = e_zeros(args.alpha, args.beta, args.n)
    pairs = sorted(zip(zs.source_x, zs.lambdas))
    if args.format == "json":
        return json.dumps({"alpha": zs.alpha, "beta": zs.beta, "n": zs.n,
                           "x": [p[0] for p in pairs],
                           "t": [p[1] for p in pairs]}) + "\n"
    rows = [(s, x, t) for s, (x, t) in enumerate(pairs, start=1)]
    return _csv(["s", "x", "t"], rows)


def cmd_quad(args) -> str:
    if args.family == "exp":
        _need_n(args.n)
        from .exppoly import legendre_type_quadrature
        unit = legendre_type_quadrature(args.n)
        rows = [(s, x, -math.log(x), w, w / x)
                for s, (x, w) in enumerate(zip(unit.nodes, unit.weights), start=1)]
        if args.format == "json":
            return json.dumps({"n": args.n, "rows": [
                {"s": s, "x": x, "t": t, "w": w, "v": v}
                for s, x, t, w, v in rows]}) + "\n"
        return _csv(["s", "x_s", "t_s", "w_s", "v_s"], rows)
    if args.family == "ajp":
        if args.alpha is None or args.beta is None:
            raise UsageError("--alpha and --beta are required for family ajp")
        if args.m < 1:
            raise UsageError(f"--m must be at least 1, got {args.m}")
        from .quad import gauss_jacobi_rule
        rule = gauss_jacobi_rule(args.m, args.alpha, args.beta)
        if args.format == "json":
            return json.dumps({"domain": rule.domain, "weight": list(rule.weight_desc),
                               "nodes": list(rule.nodes), "weights": list(rule.weights)}) + "\n"
        return _csv(["node", "weight"], zip(rule.nodes, rule.weights))
    raise UsageError("quad supports --family ajp (Gauss-Jacobi) or exp")


def cmd_verify(args) -> tuple[str, int]:
    from . import verify
    try:
        summary = verify.run_suite(args.suite, args.nmax)
    except verify.NoChecksError as exc:
        raise UsageError(str(exc)) from exc
    text = json.dumps(summary, indent=2) + "\n"
    return text, (0 if summary["failed"] == 0 else 1)


def cmd_zbuild(args) -> str:
    _need_n(args.n)
    from . import zfun
    if args.candidates == "real":
        spec = zfun.z_build_real(args.n, args.omega)
    elif args.candidates == "rational":
        spec = zfun.z_build(args.n, args.omega,
                            zfun.rational_candidates(args.limit))
    else:
        spec = zfun.z_build(args.n, args.omega, zfun.whole_candidates(args.limit))
    if args.format == "csv":
        rows = [(k, lam) for k, lam in enumerate(spec.zeros.lambdas, start=1)]
        return _csv(["k", "lambda"], rows)
    return json.dumps({"n": spec.n, "omega": float(spec.omega),
                       "alpha_n": float(spec.alpha_n), "beta_n": float(spec.beta_n),
                       "gamma_n": spec.gamma_n, "scaled": spec.scaled,
                       "lambdas": list(spec.zeros.lambdas)}) + "\n"


def _target_function(args):
    rate = args.rate
    if args.target == "exp":
        return lambda t: math.exp(-rate * t)
    return lambda t: t * math.exp(-rate * t)


def cmd_project(args) -> str:
    _need_n(args.n)
    from . import exppoly
    sys_ = exppoly.ExpPolySystem(args.alpha, args.beta, args.n)
    # the target's squared weighted norm, of exp(-(alpha + 2 rate) t) times
    # (1 - exp(-t))**beta and a power of t, is finite only for alpha + 2 rate > 0
    if not args.alpha + 2 * args.rate > 0:
        raise DivergenceError(
            f"weighted L2 norm of the {args.target} target diverges unless "
            f"alpha + 2 rate > 0 (alpha = {args.alpha}, rate = {args.rate})")
    result = exppoly.project(_target_function(args), sys_)
    return json.dumps({"n": args.n, "target": args.target, "rate": args.rate,
                       "coeffs": list(result.coeffs),
                       "error": result.error}) + "\n"


def cmd_plot_data(args) -> str:
    _need_n(args.n)
    from .marginal import MarginalKind, plot_table
    kind = MarginalKind.A if args.family == "a" else MarginalKind.T
    rows = plot_table(kind, args.n, args.points, exact=args.mode == "exact")
    fam = args.family.upper()
    header = ["x"] + [f"{fam}{args.n}{k}" for k in range(1, args.n + 1)]
    return _csv(header, [(x,) + tuple(vals) for x, vals in rows])


_NEGATIVE_RATIONAL = re.compile(r"-\d+/\d+")


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """argparse takes only -2 and -0.5 style tokens for negative numbers, so
    a p/q value such as -7/2 after a flag is joined to it as --flag=-7/2."""
    out = []
    for tok in argv:
        if (out and _NEGATIVE_RATIONAL.fullmatch(tok)
                and out[-1].startswith("--") and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _sample_count(text: str) -> int:
    """--points: a grid needs both endpoints, so at least 2 samples."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 points, got {value}")
    return value


def _whole_number(text: str) -> int:
    """--limit (the largest candidate exponent; below 0 the set is empty)
    and --nmax (the top index verify runs to): a whole number >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _finite(text: str) -> float:
    """--rate: a finite float (inf and nan give no target function)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _time_span(text: str) -> float:
    """--tmax: the exponential members live on t >= 0, so a finite t > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altpoly",
        description="Alternative Jacobi polynomial families, exponential "
                    "counterparts on the semi-axis, quadratures, and Z systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, kflag=True, fmt=True):
        p.add_argument("--family", default="ajp",
                       choices=["ajp", "a", "t", "exp", "exp-a", "exp-t", "z"])
        p.add_argument("--alpha", default=None)
        p.add_argument("--beta", default=None)
        p.add_argument("--n", type=int, required=True)
        if kflag:
            p.add_argument("--k", type=int, default=0)
        p.add_argument("--mode", choices=["exact", "float"], default="exact")
        p.add_argument("--out", default=None)
        if fmt:
            p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("coeffs", help="polynomial coefficients")
    common(p)

    p = sub.add_parser("tabulate", help="sample a family member on a grid")
    common(p, fmt=False)
    p.add_argument("--points", type=_sample_count, default=129)
    p.add_argument("--tmax", type=_time_span, default=5.0)
    p.add_argument("--omega", default=None)
    p.add_argument("--limit", type=_whole_number, default=64)

    p = sub.add_parser("zeros", help="zeros of the associated function")
    common(p, kflag=False)

    p = sub.add_parser("quad", help="quadrature nodes and weights")
    common(p, kflag=False)
    p.add_argument("--m", type=int, default=8)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all",
                   choices=["core", "quad", "marginal", "exp", "zfun", "all"])
    p.add_argument("--nmax", type=_whole_number, default=8)
    p.add_argument("--out", default=None)

    p = sub.add_parser("zbuild", help="build a Z or Z-tilde system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--candidates", choices=["whole", "rational", "real"],
                   default="whole")
    p.add_argument("--limit", type=_whole_number, default=64)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="json")

    p = sub.add_parser("project", help="project a target function on a system")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=["exp", "texp"], default="exp")
    p.add_argument("--rate", type=_finite, default=1.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("plot-data", help="figure data for the marginal families")
    p.add_argument("--family", default="a", choices=["a", "t"])
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--points", type=_sample_count, default=512)
    # figure data defaults to floats
    p.add_argument("--mode", choices=["exact", "float"], default="float")
    p.add_argument("--out", default=None)

    return parser


def _resolve_mode(args, parser):
    """Parse --alpha, --beta and --omega in the command's --mode (exact for a
    command without one): decimal and p/q strings become exact rationals, or
    floats in float mode. A value that is no number, divides by zero (1/0)
    or leaves the float range in float mode is a usage error."""
    mode = getattr(args, "mode", "exact")
    for name in ("alpha", "beta", "omega"):
        text = getattr(args, name, None)
        if text is not None:
            try:
                value = Fraction(text)
                setattr(args, name, float(value) if mode == "float" else value)
            except (ValueError, ArithmeticError):
                kind = "a finite float" if mode == "float" else "a rational number"
                parser.error(f"argument --{name}: {text!r} is not {kind}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_rationals(sys.argv[1:] if argv is None else argv))
    _resolve_mode(args, parser)
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
    except (AltpolyError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 1
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
