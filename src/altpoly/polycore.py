"""Alternative Jacobi polynomials on [0,1] and the classical shifted Jacobi
polynomials they are tied to.

A family member is indexed by (alpha, beta, n, k): degree exactly n, lowest
power exactly k, orthogonal under the weight x**alpha (1-x)**beta when the
parameters allow. The lower index runs downward, k = n..0, which is what the
downward three-term recurrence follows.

Arithmetic is exact (fractions) whenever alpha and beta are rational; float
otherwise. Every exact coefficient vector comes from one kernel: the
terminating hypergeometric sum of the shifted Jacobi polynomial, whose x^j
coefficient is a product of integers over the common denominator
d^m m!, d = lcm(den a, den b). A member is x^k times the kernel at
(n - k, alpha + 2k + 1, beta); the direct family and the reciprocity route
call the same kernel. The kernel and the exact downward recurrence work on
Python integers and build one Fraction per output coefficient at the end.
Gamma-function ratios in the norm and integral formulas are evaluated as
products of rational factors, never through a floating gamma, so exact mode
stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CoefficientOverflowError,
    DivergenceError,
    NonNormalizableError,
    RecurrenceError,
)
from .exact import (
    ExactnessError,
    exact_gamma2_ratio,
    falling_factorial,
    float_gamma2_ratio,
    is_exact,
    over_common_denominator,
    simplify_scalar,
)
from .poly import DensePoly


def _param(v):
    """Normalize a family parameter: rationals stay exact, floats stay float."""
    if isinstance(v, float):
        return v
    return Fraction(v)


@dataclass(frozen=True)
class PolyParams:
    """Identifies one alternative Jacobi polynomial.

    k = n + 1 is admitted as the zero-polynomial sentinel used by the
    downward recurrence. alpha may drop to -1 and below (marginal and formal
    regimes); norm and integral operations then refuse the non-integrable
    cases individually.
    """

    alpha: object
    beta: object
    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _param(self.alpha))
        object.__setattr__(self, "beta", _param(self.beta))
        if self.n < 0:
            raise ValueError("n must be a whole number")
        if not 0 <= self.k <= self.n + 1:
            raise ValueError(f"k = {self.k} outside 0..n+1 for n = {self.n}")
        if not self.beta > -1:
            raise ValueError("beta must exceed -1")

    @property
    def exact(self) -> bool:
        return is_exact(self.alpha) and is_exact(self.beta)

    @property
    def regime(self) -> str:
        """normalizable (alpha > -1), marginal (-2 < alpha <= -1), else formal."""
        if self.alpha > -1:
            return "normalizable"
        if self.alpha > -2:
            return "marginal"
        return "formal"

    @property
    def is_sentinel(self) -> bool:
        return self.k == self.n + 1


def falling(a, m: int):
    """Falling factorial (a)_m; the convention used by every formula here."""
    return falling_factorial(a, m)


def ajp_coefficients(p: PolyParams) -> DensePoly:
    """Monomial coefficients of the member polynomial.

    Exact parameters: x^k times the shifted Jacobi polynomial
    P_{n-k}^{(alpha+2k+1, beta)}(1-2x), from the integer kernel, one
    Fraction per coefficient. Float parameters expand
    sum_j (-1)^j C(n-k, j) (alpha+n+k+1)_{n-k-j} (beta+n-k)_j
    x^(k+j) (1-x)^(n-k-j) / (n-k)!  with falling factorials throughout, and
    raise CoefficientOverflowError when a coefficient leaves the double range.

    Results are cached; the key carries the arithmetic mode because exact and
    float parameters can compare equal (Fraction(1,2) == 0.5) yet must not
    share coefficients.
    """
    return _ajp_coefficients_cached(p, p.exact)


@lru_cache(maxsize=4096)
def _ajp_coefficients_cached(p: PolyParams, _exact: bool) -> DensePoly:
    if p.is_sentinel:
        return DensePoly.zero()
    n, k, a, b = p.n, p.k, p.alpha, p.beta
    m = n - k
    if p.exact:
        return DensePoly(_shifted_jacobi_lifted(m, a + 2 * k + 1, b, k))
    out = [0.0] * (n + 1)
    fact_m = math.factorial(m)
    try:
        for j in range(m + 1):
            pref = (-1) ** j * math.comb(m, j) * falling(a + n + k + 1, m - j) * falling(b + m, j)
            pref = pref / fact_m
            # expand (1-x)^(m-j) onto powers k+j .. n
            for i in range(m - j + 1):
                out[k + j + i] += pref * ((-1) ** i * math.comb(m - j, i))
    except OverflowError as exc:
        raise CoefficientOverflowError(n, k, a, b) from exc
    if not all(map(math.isfinite, out)):
        raise CoefficientOverflowError(n, k, a, b)
    return DensePoly(out)


def ajp_eval(p: PolyParams, x):
    """Evaluate by Horner on the expanded coefficients."""
    return ajp_coefficients(p)(x)


def ajp_recurrence(alpha, beta, n: int, up_to_k: int = 0) -> list[DensePoly]:
    """Downward three-term recurrence on coefficient vectors.

    Returns members for k = n down to up_to_k (descending order). The 1/x
    factor in the recurrence is a left shift, applied only after checking the
    constant term is zero. Exact parameters run on primitive integer vectors
    (see _exact_recurrence); float parameters on float coefficients.
    """
    a, b = _param(alpha), _param(beta)
    if n < 0 or not 0 <= up_to_k <= n:
        raise ValueError("need 0 <= up_to_k <= n")
    if is_exact(a) and is_exact(b):
        return _exact_recurrence(a, b, n, up_to_k)
    a, b = float(a), float(b)
    seq = [DensePoly.monomial(n)]
    if up_to_k == n:
        return seq
    seq.append(DensePoly([0] * (n - 1) + [a + 2 * n, -(a + b + 2 * n + 1)]))
    for k in range(n - 1, up_to_k, -1):
        cur, prev = seq[-1], seq[-2]
        const = cur.coeffs[0] if cur.coeffs else 0
        if const:
            # float mode tolerates roundoff residue relative to the coefficient scale
            scale = max(abs(c) for c in cur.coeffs)
            if abs(const) > 1e-9 * scale:
                raise RecurrenceError(
                    f"member k={k} has nonzero constant term, cannot apply 1/x step")
        shifted = DensePoly(cur.coeffs[1:])
        c1, c2, c3, c4, denom = _recurrence_factors(a, b, n, k)
        combo = (shifted.scale(c1) - cur.scale(c2)).scale(c3) - prev.scale(c4)
        seq.append(combo.scale(1 / denom))
    return seq


def _recurrence_factors(a, b, n: int, k: int):
    """Factors of the step member(k) -> member(k-1):
    x member(k-1) denom = c3 (c1 member(k) - c2 x member(k)) - c4 x member(k+1)."""
    return ((a + 2 * k) * (a + 2 * k + 2),
            (a + 2 * n + 2) * (a + b + 2 * k + 1) + 2 * (n - k) * (n - k + 1),
            a + 2 * k + 1,
            (a + b + n + k + 2) * (b + n - k) * (a + 2 * k),
            (n - k + 1) * (a + n + k + 1) * (a + 2 * k + 2))


def _primitive(scale: Fraction, vec: list[int]):
    """The same vector as (scale * g, vec / g), g the gcd of the entries."""
    g = math.gcd(*vec)
    if g == 0:
        return Fraction(0), vec
    if g == 1:
        return scale, vec
    return scale * g, [v // g for v in vec]


def _exact_recurrence(a: Fraction, b: Fraction, n: int, up_to_k: int) -> list[DensePoly]:
    """The downward recurrence with each member held as an exact scale times a
    primitive int vector of length n + 1. A step combines the left-shifted,
    the current and the previous vector with integer multipliers (the step's
    rational factors over their common denominator) and divides out the gcd;
    one Fraction per coefficient is built at the end."""
    members = [(Fraction(1), [0] * n + [1])]
    if up_to_k < n:
        lead, den = over_common_denominator((a + 2 * n, -(a + b + 2 * n + 1)))
        members.append(_primitive(Fraction(1, den), [0] * (n - 1) + lead))
    for k in range(n - 1, up_to_k, -1):
        (s_cur, cur), (s_prev, prev) = members[-1], members[-2]
        if cur[0]:
            raise RecurrenceError(
                f"member k={k} has nonzero constant term, cannot apply 1/x step")
        c1, c2, c3, c4, denom = _recurrence_factors(a, b, n, k)
        (m1, m2, m3), den = over_common_denominator(
            (s_cur * c3 * c1 / denom, -s_cur * c3 * c2 / denom, -s_prev * c4 / denom))
        vec = [m1 * x + m2 * y + m3 * z for x, y, z in zip(cur[1:] + [0], cur, prev)]
        members.append(_primitive(Fraction(1, den), vec))
    zero = Fraction(0)
    out = []
    while members:
        s, vec = members.pop()          # each int vector is freed once converted
        out.append(DensePoly([Fraction(s.numerator * v, s.denominator) if v else zero
                              for v in vec]))
    return out[::-1]


def ajp_norm_h(p: PolyParams):
    """Squared weighted norm h = 1/(alpha+2k+1) *
    Gamma(alpha+n+k+2) Gamma(beta+n-k+1) / ((n-k)! Gamma(alpha+beta+n+k+2)).

    Valid whenever the diagonal integral converges, i.e. alpha + 2k + 1 > 0;
    in particular the k = 0 member of a marginal system is rejected.
    """
    n, k, a, b = p.n, p.k, p.alpha, p.beta
    if not a + 2 * k + 1 > 0:
        raise NonNormalizableError(
            f"member (n={n}, k={k}) is non-normalizable for alpha = {a}")
    ga, gb, gc = a + n + k + 2, b + n - k + 1, a + b + n + k + 2
    fact = math.factorial(n - k)
    if p.exact:
        try:
            ratio = exact_gamma2_ratio(ga, gb, gc)
            return simplify_scalar(ratio / (a + 2 * k + 1) / fact)
        except ExactnessError:
            pass
    return float_gamma2_ratio(ga, gb, gc) / float(a + 2 * k + 1) / fact


def ajp_single_integral(p: PolyParams):
    """Integral of the weighted member over [0,1]:
    Gamma(alpha+k+1)/k! * Gamma(beta+n-k+1)/(n-k)! * n!/Gamma(alpha+beta+n+2).
    """
    n, k, a, b = p.n, p.k, p.alpha, p.beta
    if not a + k + 1 > 0:
        raise DivergenceError(
            f"weighted integral of member (n={n}, k={k}) diverges for alpha = {a}")
    ga, gb, gc = a + k + 1, b + n - k + 1, a + b + n + 2
    scale = Fraction(math.factorial(n), math.factorial(k) * math.factorial(n - k))
    if p.exact:
        try:
            return simplify_scalar(exact_gamma2_ratio(ga, gb, gc) * scale)
        except ExactnessError:
            pass
    return float_gamma2_ratio(ga, gb, gc) * float(scale)


def direct_norm_d(alpha, beta, n: int, k: int):
    """Squared norm of the direct-orthogonalization polynomial (k >= n):
    1/(alpha+beta+2k+1) * Gamma(alpha+k+n+1) Gamma(beta+k-n+1) /
    ((k-n)! Gamma(alpha+beta+k+n+1)).
    """
    if k < n:
        raise ValueError("direct family is indexed by k >= n")
    a, b = _param(alpha), _param(beta)
    if not (a > -1 and b > -1):
        raise DivergenceError("direct norms need alpha > -1 and beta > -1")
    ga, gb, gc = a + k + n + 1, b + k - n + 1, a + b + k + n + 1
    fact = math.factorial(k - n)
    if is_exact(a) and is_exact(b):
        try:
            return simplify_scalar(exact_gamma2_ratio(ga, gb, gc) / (a + b + 2 * k + 1) / fact)
        except ExactnessError:
            pass
    return float_gamma2_ratio(ga, gb, gc) / float(a + b + 2 * k + 1) / fact


def _jacobi_kernel(m: int, a: Fraction, b: Fraction) -> tuple[list[int], int]:
    """Integers c_0..c_m and one denominator D such that c_j / D is the x^j
    coefficient of the shifted Jacobi polynomial P_m^{(a,b)}(1-2x),

        (-1)^j C(m, j) (m+a)_{m-j} (m+a+b+1)^{(j)} / m!

    with (x)_r the falling and (x)^{(r)} the rising factorial: the terminating
    hypergeometric sum of Szego, Orthogonal Polynomials, 4.21. With
    d = lcm(den a, den b), A = d a and B = d b, the falling factor is
    prod_{t=j+1..m} (d t + A) / d^{m-j} and the rising one
    prod_{i<j} (d (m+1+i) + A + B) / d^j, so D = d^m m!. O(m) integer
    products; a polynomial identity in a and b, so any rational parameters
    work, negative ones included.
    """
    (big_a, big_b), d = over_common_denominator((a, b))
    rising = [1]
    for i in range(m):
        rising.append(rising[-1] * (d * (m + 1 + i) + big_a + big_b))
    nums = [0] * (m + 1)
    falling_part, binom = 1, 1          # prod_{t=j+1..m} (d t + A) and C(m, j), at j = m
    for j in range(m, -1, -1):
        c = binom * falling_part * rising[j]
        nums[j] = -c if j & 1 else c
        falling_part *= d * j + big_a
        binom = binom * j // (m - j + 1)
    return nums, d ** m * math.factorial(m)


def _shifted_jacobi_lifted(m: int, a, b, lift: int = 0) -> list:
    """Coefficients of x^lift P_m^{(a,b)}(1-2x), powers 0..m+lift: Fractions
    for rational a and b; otherwise floats, each rounded once from the exact
    value at the binary parameters."""
    nums, den = _jacobi_kernel(m, Fraction(a), Fraction(b))
    if is_exact(a) and is_exact(b):
        return [Fraction(0)] * lift + [Fraction(c, den) for c in nums]
    return [0.0] * lift + [c / den for c in nums]


def shifted_jacobi_coefficients(m: int, a, b) -> DensePoly:
    """Shifted Jacobi polynomial P_m^{(a,b)}(1-2x) on [0,1], from the
    hypergeometric kernel; any real parameters (no orthogonality implied for
    the negative ones the reciprocity route uses)."""
    return DensePoly(_shifted_jacobi_lifted(m, _param(a), _param(b)))


def shifted_jacobi(m: int, a, b, x):
    """Value of the shifted Jacobi polynomial at x."""
    return shifted_jacobi_coefficients(m, a, b)(x)


def direct_coefficients(alpha, beta, n: int, k: int) -> DensePoly:
    """Direct-orthogonalization polynomial: x^n times the shifted Jacobi
    polynomial of degree k-n with first parameter translated by 2n."""
    if k < n:
        raise ValueError("direct family is indexed by k >= n")
    a, b = _param(alpha), _param(beta)
    return DensePoly(_shifted_jacobi_lifted(k - n, a + 2 * n, b, n))


def reciprocity_coefficients(alpha, beta, n: int, k: int) -> DensePoly:
    """Member coefficients rebuilt through the reciprocity route:
    x^n * J_{n-k}^{(-alpha-beta-2n-2, beta)}(1 - 2/x), expanded exactly.

    The degree-(n-k) polynomial in 1/x times x^n lands on powers x^k..x^n,
    so its coefficients are the kernel's in reverse order above k zeros.
    """
    a, b = _param(alpha), _param(beta)
    q = _shifted_jacobi_lifted(n - k, -a - b - 2 * n - 2, b, k)
    return DensePoly(q[:k] + q[k:][::-1])


def ajp_derivative(p: PolyParams) -> DensePoly:
    """Coefficient-wise derivative of the member polynomial."""
    return ajp_coefficients(p).derivative()


def diff_formula_residual(p: PolyParams) -> DensePoly:
    """Residual of the lowering differentiation formula (k < n):
    dP/dx - k/x P + (alpha+beta+n+k+2) * P_{n-1,k}^{(alpha+1,beta+1)}.

    Zero polynomial iff the identity holds. The k/x term is a left shift,
    legal because the lowest power of the member is exactly k.
    """
    n, k, a, b = p.n, p.k, p.alpha, p.beta
    if k >= n:
        raise ValueError("differentiation formula applies for k < n")
    member = ajp_coefficients(p)
    lhs = member.derivative()
    if k:
        lhs = lhs - member.shift_down().scale(k)
    rhs = ajp_coefficients(PolyParams(a + 1, b + 1, n - 1, k)).scale(-(a + b + n + k + 2))
    return lhs - rhs


def dd_raising_residual(p: PolyParams) -> DensePoly:
    """Residual of the raising differential-difference relation,
    connecting the member with its k+1 neighbor:

    (alpha+2k+2) x(1-x) P' - [k alpha + 2k(k+1)
      - (n alpha + (n-k) beta + n^2 + k^2 + 2n) x] P
      + (alpha+beta+n+k+2)(beta+n-k) x P_{n,k+1}
    """
    n, k, a, b = p.n, p.k, p.alpha, p.beta
    member = ajp_coefficients(p)
    x_one_minus_x = DensePoly((0, 1, -1))
    lhs = (x_one_minus_x * member.derivative()).scale(a + 2 * k + 2)
    bracket = DensePoly((k * a + 2 * k * (k + 1),
                         -(n * a + (n - k) * b + n * n + k * k + 2 * n)))
    up = ajp_coefficients(PolyParams(a, b, n, k + 1))
    rhs = bracket * member - up.shift_up().scale((a + b + n + k + 2) * (b + n - k))
    return lhs - rhs


def dd_lowering_residual(p: PolyParams) -> DensePoly:
    """Residual of the lowering differential-difference relation (k >= 1),
    connecting the member with its k-1 neighbor:

    (alpha+2k) x(1-x) P' - [-(alpha+2k)(alpha+k+1)
      + ((n+1)(alpha+beta+n+1) + (alpha+k)(alpha+beta+k) + alpha+2k) x] P
      - (n-k+1)(alpha+n+k+1) x P_{n,k-1}
    """
    n, k, a, b = p.n, p.k, p.alpha, p.beta
    if k < 1:
        raise ValueError("lowering relation applies for k >= 1")
    member = ajp_coefficients(p)
    x_one_minus_x = DensePoly((0, 1, -1))
    lhs = (x_one_minus_x * member.derivative()).scale(a + 2 * k)
    bracket = DensePoly((-(a + 2 * k) * (a + k + 1),
                         (n + 1) * (a + b + n + 1) + (a + k) * (a + b + k) + a + 2 * k))
    down = ajp_coefficients(PolyParams(a, b, n, k - 1))
    rhs = bracket * member + down.shift_up().scale((n - k + 1) * (a + n + k + 1))
    return lhs - rhs


def ode_apply(alpha, beta, n: int, k: int, y: DensePoly) -> DensePoly:
    """Apply the family's second-order differential operator to y:
    x^2 (1-x) y'' + x [alpha+2-(alpha+beta+3)x] y'
    - [k(alpha+k+1) - n(alpha+beta+n+2)x] y.
    """
    a, b = _param(alpha), _param(beta)
    d1, d2 = y.derivative(), y.derivative().derivative()
    term2 = DensePoly((0, 0, 1, -1)) * d2                      # x^2(1-x) y''
    term1 = DensePoly((0, a + 2, -(a + b + 3))) * d1           # x(alpha+2-(alpha+beta+3)x) y'
    term0 = DensePoly((-k * (a + k + 1), n * (a + b + n + 2))) * y
    return term2 + term1 + term0


def ode_residual_poly(p: PolyParams) -> DensePoly:
    return ode_apply(p.alpha, p.beta, p.n, p.k, ajp_coefficients(p))


def ode_residual(p: PolyParams, x):
    """Value of the differential-equation residual at x; 0 for members."""
    return ode_residual_poly(p)(x)


def weight_eval(alpha, beta, x):
    """Weight x**alpha (1-x)**beta; endpoints with negative exponents diverge."""
    a, b = _param(alpha), _param(beta)
    if (x == 0 and a < 0) or (x == 1 and b < 0):
        raise DivergenceError("weight is infinite at this endpoint")
    if is_exact(x) and is_exact(a) and is_exact(b) \
            and Fraction(a).denominator == 1 and Fraction(b).denominator == 1:
        xf = Fraction(x)
        return xf ** int(a) * (1 - xf) ** int(b)
    return float(x) ** float(a) * (1.0 - float(x)) ** float(b)


def endpoint_sign(p: PolyParams) -> int:
    """Sign of the member at x = 1, which alternates as (-1)^(n-k)."""
    v = ajp_eval(p, Fraction(1) if p.exact else 1.0)
    return (v > 0) - (v < 0)
