"""The two marginal systems: A-kind (weight 1/x) and T-kind
(weight x**(-3/2) (1-x)**(-1/2)).

Both are alternative families whose k = 0 member is orthogonal to all higher
members yet non-normalizable under the family weight; that singular member is
a shifted Legendre polynomial (A) or a shifted Chebyshev polynomial (T).
A-kind coefficients are integers; T-kind values are rational, with norms
rational multiples of pi kept exact through PiRational.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .errors import DivergenceError
from .exact import PiRational, double_factorial, whole_index
from .poly import DensePoly
from .polycore import (PolyParams, _downward_recurrence, ajp_coefficients, ajp_recurrence,
                       jacobi_rows)


class MarginalKind(enum.Enum):
    """The two marginal families, each with its weight exponents
    weight_desc = (alpha, beta)."""

    A = (Fraction(-1), Fraction(0))
    T = (Fraction(-3, 2), Fraction(-1, 2))

    def __init__(self, alpha, beta):
        self.alpha, self.beta = alpha, beta
        self.weight_desc = (alpha, beta)


def a_coefficients(n: int, k: int) -> DensePoly:
    """A-kind member (k in 0..n) by its binomial expansion:
    sum_j (-1)^j C(n-k, j) C(n+k+j, n-k) x^(k+j); integer coefficients."""
    n, k = whole_index("n", n), whole_index("k", k, 0, n)
    out = [0] * (n + 1)
    for j in range(n - k + 1):
        out[k + j] = (-1) ** j * math.comb(n - k, j) * math.comb(n + k + j, n - k)
    return DensePoly(out)


def a_recurrence(n: int) -> list[DensePoly]:
    """A-kind members for k = n down to 0, n >= 1, by the downward
    recurrence starting from x^n and (2n-1)x^(n-1) - 2n x^n: the family's
    recurrence at alpha = -1, beta = 0 (polycore.ajp_recurrence)."""
    return ajp_recurrence(-1, 0, whole_index("n", n, 1))


def a_norm(n: int, k: int, l: int) -> Fraction:
    """Inner product of A members under 1/x, k and l in 0..n:
    delta_{kl} / (k+l); the (0,0) pairing diverges."""
    n = whole_index("n", n)
    k, l = whole_index("k", k, 0, n), whole_index("l", l, 0, n)
    if k == 0 and l == 0:
        raise DivergenceError("the singular A member has no finite norm")
    if k != l:
        return Fraction(0)
    return Fraction(1, k + l)


def a_single_integral(n: int, k: int) -> Fraction:
    """Integral of an A member (k in 0..n) against 1/x: equals 1/k, and
    diverges for k = 0."""
    n, k = whole_index("n", n), whole_index("k", k, 0, n)
    if k == 0:
        raise DivergenceError("singular A member is not integrable against 1/x")
    return Fraction(1, k)


def t_scaling(n: int, k: int) -> Fraction:
    """Leading normalization (n-k)! / (n-k-1/2)_{n-k} applied to the raw
    member, k in 0..n; makes the endpoint value exactly (-1)^(n-k). With
    m = n - k, (m-1/2)_m = (2m-1)!! / 2^m, so it is the integer ratio
    m! 2^m / (2m-1)!!."""
    m = whole_index("n", n) - whole_index("k", k, 0, n)
    return Fraction(math.factorial(m) << m, double_factorial(2 * m - 1))


def t_coefficients(n: int, k: int) -> DensePoly:
    """T-kind member (k in 0..n): scaled alternative polynomial at (-3/2, -1/2)."""
    n, k = whole_index("n", n), whole_index("k", k, 0, n)
    base = ajp_coefficients(PolyParams(Fraction(-3, 2), Fraction(-1, 2), n, k))
    return base.scale(t_scaling(n, k))


def t_recurrence(n: int) -> list[DensePoly]:
    """T-kind members for k = n down to 0, n >= 1, by the downward
    recurrence starting from x^n and (4n-3)x^(n-1) - (4n-2)x^n, on the exact
    integer kernel of polycore."""
    n = whole_index("n", n, 1)
    first = [0] * (n - 1) + [4 * n - 3, -(4 * n - 2)]
    return _downward_recurrence(n, (first, 1), lambda k: _t_step(n, k), label="T member")


def _t_step(n: int, k: int):
    """Integer factors (m1, m2, m3, den) of the T-kind step, as polycore._recurrence_factors."""
    return ((4 * k - 1) * (4 * k - 3) * (4 * k + 1),
            2 * (4 * k - 1) * (4 * n * n + 4 * k * k - 2 * k - 1),
            4 * (n - k) * (n + k) * (4 * k - 3),
            (2 * (n + k) - 1) * (2 * (n - k) + 1) * (4 * k + 1))


def t_norm(n: int, k: int, l: int):
    """Inner product of T members under x**(-3/2) (1-x)**(-1/2), k and l in
    0..n: delta_{kl} * pi/(2(k+l)-1) * (2n-k-l)!!/(2n-k-l-1)!! *
    (2n+k+l-1)!!/(2n+k+l-2)!!, using 0!! = 1 and (-1)!! = 1; the (0,0)
    pairing diverges."""
    n = whole_index("n", n)
    k, l = whole_index("k", k, 0, n), whole_index("l", l, 0, n)
    if k == 0 and l == 0:
        raise DivergenceError("the singular T member has no finite norm")
    if k != l:
        return PiRational(0, 0)
    s = k + l
    coeff = (
        Fraction(1, 2 * s - 1)
        * Fraction(double_factorial(2 * n - s), double_factorial(2 * n - s - 1))
        * Fraction(double_factorial(2 * n + s - 1), double_factorial(2 * n + s - 2))
    )
    return PiRational(0, coeff)


def t_single_integral(n: int, k: int):
    """Integral of a T member (k in 0..n) against the family weight:
    (2k-3)!!/(2k)!! * 2n*pi, diverging for k = 0."""
    n, k = whole_index("n", n), whole_index("k", k, 0, n)
    if k == 0:
        raise DivergenceError("singular T member is not integrable against the weight")
    coeff = Fraction(double_factorial(2 * k - 3), double_factorial(2 * k)) * 2 * n
    return PiRational(0, coeff)


def is_normalizable(kind: MarginalKind, k: int) -> bool:
    """False exactly for the singular k = 0 member of either marginal family."""
    if not isinstance(kind, MarginalKind):
        raise TypeError("kind must be a MarginalKind")
    return k != 0


def shifted_legendre_coefficients(m: int) -> DensePoly:
    """Legendre polynomial of degree m >= 0 composed with 1-2x, built by the
    classical recurrence; independent oracle for the singular A member."""
    y = DensePoly((1, -2))
    prev, cur = DensePoly.one(), y
    if whole_index("m", m) == 0:
        return prev
    for j in range(1, m):
        nxt = (y * cur.scale(2 * j + 1) - prev.scale(j)).scale(Fraction(1, j + 1))
        prev, cur = cur, nxt
    return cur


def shifted_chebyshev_coefficients(m: int) -> DensePoly:
    """Chebyshev polynomial of the first kind of degree m >= 0 composed with
    1-2x, built by the classical recurrence; independent oracle for the
    singular T member."""
    y = DensePoly((1, -2))
    prev, cur = DensePoly.one(), y
    if whole_index("m", m) == 0:
        return prev
    for _ in range(1, m):
        prev, cur = cur, y * cur.scale(2) - prev
    return cur


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
    """Rows (x, member values k = 1..n), n >= 0, on a uniform grid including
    both endpoints; the raw data behind the family figures. Exact values by
    Horner on the exact members at x = i/(points - 1), else floats from
    member_rows at the float x."""
    n = whole_index("n", n)
    if points < 2:
        raise ValueError("need at least two sample points")
    if exact:
        members = [a_coefficients(n, k) if kind is MarginalKind.A else t_coefficients(n, k)
                   for k in range(1, n + 1)]
        xs = [Fraction(i, points - 1) for i in range(points)]
        return [(x, tuple(member(x) for member in members)) for x in xs]
    xs = [i / (points - 1) for i in range(points)]
    return list(zip(xs, map(tuple, member_rows(kind, n, xs).T.tolist())))
