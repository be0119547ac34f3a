"""The two marginal systems: A-kind (weight 1/x) and T-kind
(weight x**(-3/2) (1-x)**(-1/2)), the alternative family at (alpha, beta) =
(-1, 0) and at (-3/2, -1/2) times t_scaling(n, k). Each name is an index
check and one polycore call at its family's point; the T scale enters the
integers of the norm and integral kernels and of the recurrence's step
factors. The k = 0 member of either family is orthogonal to all higher
members yet not normalizable. The paper's closed forms for both families
live in verify, as the expected side of its marginal rows.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import partial

from .exact import PiRational, double_factorial, whole_index
from .poly import DensePoly
from .polycore import (PolyParams, _downward_recurrence, _norm_h, _recurrence_factors,
                       _single_integral, ajp_coefficients, ajp_recurrence, jacobi_rows)


class MarginalKind(enum.Enum):
    """The two marginal families, each with its weight exponents
    weight_desc = (alpha, beta)."""

    A = (Fraction(-1), Fraction(0))
    T = (Fraction(-3, 2), Fraction(-1, 2))

    def __init__(self, alpha, beta):
        self.alpha, self.beta = alpha, beta
        self.weight_desc = (alpha, beta)


_A, _T = MarginalKind.A.weight_desc, MarginalKind.T.weight_desc


def _indices(n, k) -> tuple[int, int]:
    """n >= 0 and k in 0..n."""
    n = whole_index("n", n)
    return n, whole_index("k", k, 0, n)


def a_coefficients(n: int, k: int) -> DensePoly:
    """A-kind member (k in 0..n): ajp_coefficients at (-1, 0)."""
    return ajp_coefficients(PolyParams(*_A, *_indices(n, k)))


def a_recurrence(n: int) -> list[DensePoly]:
    """A-kind members for k = n down to 0, n >= 1: ajp_recurrence at (-1, 0),
    from x^n and (2n-1)x^(n-1) - 2n x^n."""
    return ajp_recurrence(-1, 0, whole_index("n", n, 1))


def a_norm(n: int, k: int, l: int) -> Fraction:
    """Inner product of A members under 1/x, k and l in 0..n: ajp_norm_h's
    kernel on the diagonal."""
    n, k = _indices(n, k)
    return _norm_h(*_A, n, k) if whole_index("l", l, 0, n) == k else Fraction(0)


def a_single_integral(n: int, k: int) -> Fraction:
    """Integral of an A member (k in 0..n) against 1/x: ajp_single_integral's kernel."""
    return _single_integral(*_A, *_indices(n, k))


def t_scaling(n: int, k: int) -> Fraction:
    """Leading normalization (n-k)! / (n-k-1/2)_{n-k} of the raw member, k in
    0..n, making the endpoint value exactly (-1)^(n-k)."""
    return Fraction(*_t_scale(*_indices(n, k)))


def _t_scale(n: int, k: int) -> tuple[int, int]:
    """t_scaling as the ints m! 2^m and (2m-1)!! = 2^m (m-1/2)_m, m = n - k."""
    return math.factorial(n - k) << n - k, double_factorial(2 * (n - k) - 1)


def t_coefficients(n: int, k: int) -> DensePoly:
    """T-kind member (k in 0..n): ajp_coefficients times t_scaling(n, k)."""
    return ajp_coefficients(PolyParams(*_T, *_indices(n, k))).scale(t_scaling(n, k))


def t_recurrence(n: int) -> list[DensePoly]:
    """T-kind members for k = n down to 0, n >= 1, by polycore's downward
    recurrence from x^n and (4n-3)x^(n-1) - (4n-2)x^n on _t_factors."""
    n = whole_index("n", n, 1)
    first = [0] * (n - 1) + [4 * n - 3, -(4 * n - 2)]
    return _downward_recurrence(n, (first, 1), partial(_t_factors, n), label="T member")


def _t_factors(n: int, k: int):
    """The step factors of P_k at (-3/2, -1/2) rescaled to s(m) P_k, m = n - k,
    s = t_scaling: as s(m+1)/s(m) = 2(m+1)/(2m+1) and s(m+1)/s(m-1) = 4m(m+1)/
    ((2m+1)(2m-1)), m3 takes 2m/(2m-1) and den (2m+1)/(2(m+1)), both whole."""
    m = n - k
    m1, m2, m3, den = _recurrence_factors(-3, -1, 2, n, k)
    return m1, m2, m3 // (2 * m - 1) * 2 * m, den // (2 * m + 2) * (2 * m + 1)


def t_norm(n: int, k: int, l: int):
    """Inner product of T members under their weight, k and l in 0..n:
    ajp_norm_h's kernel with t_scaling(n, k)^2 on the diagonal."""
    n, k = _indices(n, k)
    if whole_index("l", l, 0, n) != k:
        return PiRational(0, 0)
    num, den = _t_scale(n, k)
    return _norm_h(*_T, n, k, num * num, den * den)


def t_single_integral(n: int, k: int):
    """Integral of a T member (k in 0..n) against its weight:
    ajp_single_integral's kernel with t_scaling(n, k)."""
    n, k = _indices(n, k)
    return _single_integral(*_T, n, k, *_t_scale(n, k))


def is_normalizable(kind: MarginalKind, k: int) -> bool:
    """False exactly for the singular k = 0 member of either family, k >= 0."""
    if not isinstance(kind, MarginalKind):
        raise TypeError("kind must be a MarginalKind")
    return whole_index("k", k) != 0


def member_rows(kind: MarginalKind, n: int, xs, lo: int = 1, hi: int | None = None):
    """Float values of the members k = lo..hi (hi = n by default) at the
    points xs, row k - lo for member k: polycore.jacobi_rows at the family's
    weight, the T rows times t_scaling(n, k) rounded once."""
    rows = jacobi_rows(kind.alpha + 1, kind.beta, n, xs, lo, hi)
    if kind is MarginalKind.T:
        for k, row in enumerate(rows, lo):
            row *= float(t_scaling(n, k))
    return rows


def plot_table(kind: MarginalKind, n: int, points: int, exact: bool = False):
    """Rows (x, member values k = 1..n), n >= 0, on a uniform grid of
    points >= 2 samples including both endpoints, behind the family figures:
    exact Horner on the exact members at x = i/(points - 1), else
    member_rows at the float x."""
    n, points = whole_index("n", n), whole_index("points", points, 2)
    if exact:
        members = [a_coefficients(n, k) if kind is MarginalKind.A else t_coefficients(n, k)
                   for k in range(1, n + 1)]
        xs = [Fraction(i, points - 1) for i in range(points)]
        return [(x, tuple(member(x) for member in members)) for x in xs]
    xs = [i / (points - 1) for i in range(points)]
    return list(zip(xs, map(tuple, member_rows(kind, n, xs).T.tolist())))
