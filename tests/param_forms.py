"""Parameter-form sweep of the exact layer: a whole parameter given as an
int, as Fraction(p, 1) or as the string "p" (the form the CLI reads), and a
half-odd one as a Fraction or as "p/2", must give the same results at every
entry point that normalizes its parameters (exact.exact_param): equal in
value and in type, element by element, with member coefficients Fractions,
and the same refusal where one refuses.

The grid is exact-int's pairs (0..6)^2 and exact-half's half-odd pairs
(-1/2..7/2)^2 of the benchmark, and the A and T marginal points (-1, 0) and
(-3/2, -1/2), whose k = 0 norms and integrals are refused, at n <= 12: every
k for members, norms, integrals, recurrences, the direct and reciprocity
routes and the exponential system's members and norms (ExpPolySystem,
refused below alpha, beta > -1), and k = 0, 1, n // 2, n - 1 and n for the
inner products and the identity residuals (about 5.5 s in all on a two-vCPU
Xeon with Python 3.11). It needs neither numpy nor pytest, so a bare
interpreter can run it:

    PYTHONPATH=src:tests python -c "import param_forms; param_forms.check()"
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from altpoly import polycore as pc
from altpoly import quad
from altpoly.exact import PiRational
from altpoly.exppoly import ExpPolySystem, e_norm
from altpoly.poly import DensePoly
from altpoly.polycore import PolyParams

N_MAX = 12
INT_PAIRS = list(product(range(7), repeat=2))
HALF_PAIRS = list(product((Fraction(2 * i - 1, 2) for i in range(5)), repeat=2))
MARGINAL_PAIRS = [(-1, 0), (Fraction(-3, 2), Fraction(-1, 2))]
RESIDUALS = ("ode_residual_poly", "diff_formula_residual", "dd_raising_residual",
             "dd_lowering_residual")


def forms(v) -> list:
    """v in every input form: int (whole values only), Fraction and string."""
    f = Fraction(v)
    return ([f.numerator] if f.denominator == 1 else []) + [f, str(f)]


def shape(v):
    """A comparable picture of a result: each scalar with its type, a
    polynomial as its mode and its coefficients with theirs."""
    if isinstance(v, DensePoly):
        return ("DensePoly", v.mode, tuple((type(c), c) for c in v.coeffs))
    if isinstance(v, (list, tuple)):
        return tuple(shape(x) for x in v)
    return type(v), v


def outcome(fn, *args):
    try:
        return shape(fn(*args))
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)


def results(a, b) -> dict:
    """Every entry point at (a, b), keyed by call."""
    out = {("beta_moment", "ab"): outcome(quad.beta_moment, a, b),
           ("beta_moment", "ba"): outcome(quad.beta_moment, b, a)}
    for n in range(N_MAX + 1):
        out["ajp_recurrence", n] = outcome(pc.ajp_recurrence, a, b, n)
        for k in range(n + 1):
            p = PolyParams(a, b, n, k)
            member = pc.ajp_coefficients(p)
            other = pc.ajp_coefficients(PolyParams(a, b, n, n - k))
            out["ajp_coefficients", n, k] = shape(member)
            out["ajp_norm_h", n, k] = outcome(pc.ajp_norm_h, p)
            out["ajp_single_integral", n, k] = outcome(pc.ajp_single_integral, p)
            out["direct", n, k] = (outcome(pc.direct_coefficients, a, b, k, n),
                                   outcome(pc.direct_norm_d, a, b, k, n))
            out["reciprocity_coefficients", n, k] = outcome(pc.reciprocity_coefficients,
                                                            a, b, n, k)
            if k in (0, 1, n // 2, n - 1, n):   # the costlier calls at the edges and middle
                out["weighted_inner_product", n, k] = (
                    outcome(quad.weighted_inner_product, member, member, a, b),
                    outcome(quad.weighted_inner_product, member, other, a, b))
                for name in RESIDUALS:
                    out[name, n, k] = outcome(getattr(pc, name), p)
        for k in range(n + 2):      # the system's k = 0 norm and k = n + 1 member refuse
            out["ExpPolySystem.member_poly", n, k] = outcome(
                lambda: ExpPolySystem(a, b, n).member_poly(k))
            out["e_norm", n, k] = outcome(lambda: e_norm(ExpPolySystem(a, b, n), k))
    return out


def inexact(got: dict) -> list:
    """The calls of one results() whose answer is not exact: a member
    coefficient that is not a Fraction, or a norm, integral or Beta moment
    that is not a Fraction or PiRational (a refusal is no answer)."""
    bad = []
    for key, value in got.items():
        if key[0] in ("ajp_coefficients", "ExpPolySystem.member_poly") and \
                value[0] == "DensePoly":
            bad += [key] if any(t is not Fraction for t, _ in value[2]) else []
        elif key[0] in ("ajp_norm_h", "ajp_single_integral", "beta_moment", "e_norm"):
            answered = not issubclass(value[0], Exception)
            bad += [key] if answered and value[0] not in (Fraction, PiRational) else []
    return bad


def sweep(pairs=INT_PAIRS + HALF_PAIRS + MARGINAL_PAIRS) -> tuple[list, list]:
    """(mismatches, inexact): (pair, form, call) wherever a form's result
    differs from the first form's in value, type or refusal, and (pair,
    call) wherever the first form's answer is not exact."""
    bad, loose = [], []
    for a, b in pairs:
        first, *rest = zip(forms(a), forms(b))
        want = results(*first)
        loose += [((a, b), key) for key in inexact(want)]
        for form in rest:
            got = results(*form)
            bad += [((a, b), form, key) for key in want if got[key] != want[key]]
    return bad, loose


def check():
    """Plain-assert sweep: every form agrees, and the answers are exact."""
    bad, loose = sweep()
    assert not bad, f"{len(bad)} mismatches, first: {bad[0]}"
    assert not loose, f"{len(loose)} answers not exact, first: {loose[0]}"
    print(f"param_forms: {len(INT_PAIRS)} whole pairs in 3 forms, {len(HALF_PAIRS)} "
          f"half-odd pairs in 2 and the marginal points (-1, 0) and (-3/2, -1/2), "
          f"{len(results(0, 0))} calls each, agree")
