"""Alternative Jacobi polynomials on [0,1] and the classical shifted Jacobi
polynomials they are tied to.

A family member is indexed by (alpha, beta, n, k): degree exactly n, lowest
power exactly k, orthogonal under the weight x**alpha (1-x)**beta when the
parameters allow. The lower index runs downward, k = n..0, which is what the
downward three-term recurrence follows.

Arithmetic is exact whenever alpha and beta are rational; float otherwise.
Each parameter is normalized once where it enters (exact.finite_param), a
whole one to an int. Every exact coefficient vector comes from one integer
kernel, the terminating hypergeometric sum of the shifted Jacobi polynomial
(_jacobi_kernel), and every exact member is one _lifted call on it: x^k
times it at (n - k, alpha + 2k + 1, beta), with parameters shifted exactly
for the direct family (the exponential members) and the reciprocity route.
It and the one exact downward recurrence (_downward_recurrence) give
DensePoly's exact form, integers over one denominator. Norms and integrals
are Gamma ratios, exact._gamma_quotient on doubled integer arguments at
parameters of denominator 1 or 2 (exact for every n), else gamma2_ratio.
The marginal A and T families call these kernels at (-1, 0) and (-3/2, -1/2)
(_norm_h and _single_integral with the T scale, _recurrence_factors).

Every float member value comes from one evaluator, jacobi_rows: the
three-term recurrence of P_m^(a,b)(1-2x) in x, over a vector of points and a
range of members at once. ajp_eval, shifted_jacobi and endpoint_sign use it
whenever the parameters or x are floats (exact ones at an exact x keep exact
Horner), as do exppoly.member_values (every exponential and Z value, the
k = 0 associated function included), marginal's figure data and the CLI's
float tabulate. Float Horner on the expanded coefficients cancels on [0, 1]
(off by 2e5 at n = 30 for members of size 7). Float coefficients are the
exact ones at the binary values of float parameters, each rounded once in
_lifted; they serve float ajp_recurrence, `coeffs --mode float` and, through
shifted_jacobi_coefficients, the zero guard of exppoly.guarded_zero_set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .errors import (
    CoefficientOverflowError,
    DivergenceError,
    NonNormalizableError,
    RecurrenceError,
    ValueRangeError,
)
from .exact import (_doubled, _gamma_quotient, at_binary_values, finite_param, gamma2_ratio,
                    is_exact, over_common_denominator, whole_index)
from .poly import DensePoly


@dataclass(frozen=True)
class PolyParams:
    """Identifies one alternative Jacobi polynomial.

    k = n + 1 is admitted as the zero-polynomial sentinel used by the
    downward recurrence. alpha may drop to -1 and below (marginal and formal
    regimes); norm and integral operations then refuse the non-integrable
    cases individually. alpha and beta are normalized once here
    (exact.finite_param: a whole rational is held as an int, an infinite or
    nan float refused); n >= 0 and k in 0..n+1 (exact.whole_index).
    """

    alpha: object
    beta: object
    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", finite_param("alpha", self.alpha))
        object.__setattr__(self, "beta", finite_param("beta", self.beta))
        object.__setattr__(self, "n", whole_index("n", self.n))
        object.__setattr__(self, "k", whole_index("k", self.k, 0, self.n + 1))
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


def ajp_coefficients(p: PolyParams) -> DensePoly:
    """Monomial coefficients of the member polynomial.

    x^k times the shifted Jacobi polynomial P_{n-k}^{(alpha+2k+1, beta)}(1-2x),
    from the integer kernel: exact for exact parameters; for float
    parameters the exact value at their binary values, rounded once, and
    CoefficientOverflowError when one leaves the double range. Computed on
    demand; verify shares members within a run.
    """
    return _member(p.n, p.k, p.alpha, p.beta)


def _member(n: int, k: int, a, b) -> DensePoly:
    if k == n + 1:
        return DensePoly.zero()
    ra, rb = at_binary_values(a, b)     # float parameters at their binary values
    return _lifted(k, n - k, ra + 2 * k + 1, rb, (n, k, a, b))


def ajp_eval(p: PolyParams, x):
    """Value of the member at x: exact Horner on the exact coefficients when
    the parameters and x are exact, else a float, row k of jacobi_rows at
    a = alpha + 1: x^k P_{n-k}^{(alpha+2k+1, beta)}(1-2x)."""
    if p.exact and is_exact(x):
        return ajp_coefficients(p)(x)
    if p.is_sentinel:
        return 0.0
    return float(jacobi_rows(p.alpha + 1, p.beta, p.n, (float(x),), p.k, p.k)[0, 0])


def jacobi_rows(a, b, n: int, xs, lo: int = 0, hi: int | None = None):
    """Float values of x^k P_{n-k}^{(a+2k, b)}(1-2x) for k = lo..hi (hi = n
    by default; n >= 0, lo in 0..n+1, hi in lo-1..n) at the points xs, as a
    numpy array whose row k - lo is the k-th. These are the
    alternative-family members at alpha = a - 1 and the exponential-system
    members at alpha = a, and this is the one float evaluator of member
    values.

    The Jacobi factors come from the classical three-term recurrence (DLMF
    18.9.2; Gautschi, Orthogonal Polynomials, 2004), stable on [0, 1] where
    float Horner on the expanded monomials is not. Each step raises the
    degree of every row that still needs it, at every point at once, so the
    rows cost n - lo vector steps; row k is read off at degree n - k. The
    step of P_d, from the recurrence in y = 1 - 2x with its linear factor
    expanded in x so that 1 - 2x is never rounded,

        lead P_d = ((lin + const) - 2 lin x) P_{d-1} - back P_{d-2},

    has factors that depend only on the row and the degree; they are
    tabulated once as (row x degree) arrays, the slope -2 lin and the
    constant lin + const among them, and a step is five in-place operations
    on row slices: ((slope x + constant) P_{d-1} - back P_{d-2}) / lead, in
    that association. The factor x^k is the running product ((x x) x) ...
    of k factors, so row k has the same bits whatever lo and hi are asked
    for and on every CPU.

    RecurrenceError names m, a and b of the P_m^(a,b) whose step divides by
    zero (only for a + b <= -2, which no member with alpha > -2 reaches);
    ValueRangeError names them when a value is not finite, and the first
    point that is not finite when there is one.
    """
    import numpy as np

    n = whole_index("n", n)
    lo = whole_index("lo", lo, 0, n + 1)
    hi = whole_index("hi", n if hi is None else hi, lo - 1, n)
    x = np.asarray(xs, dtype=float)
    top, rows = n - lo, hi - lo + 1     # the degree of row lo; the row count
    if not rows:
        return np.empty((0, x.size))
    k = np.arange(lo, hi + 1)[:, None]
    try:
        af, bf = float(a), float(b)
    except OverflowError as exc:
        raise _value_range_error(top, a, b) from exc
    with np.errstate(all="ignore"):
        ak = af + 2 * k
        # step factors of P_d for row r at column d - 2, d = 2..top; entries
        # with r > top - d are never read
        deg = np.arange(2, top + 1)
        s = 2 * deg - 2 + ak + bf
        lead = 2 * deg * (deg + ak + bf) * s
        lin = (s + 1) * (s + 2) * s
        const = lin + (s + 1) * (ak * ak - bf * bf)
        slope = -2 * lin
        back = 2 * (deg - 1 + ak) * (deg - 1 + bf) * (s + 2)
        if not lead.all():
            _check_step_denominators(lead, a, b, lo, top)
        shape = (rows, x.size)
        out, nxt = np.empty(shape), np.empty(shape)
        prev, cur = np.ones(shape), (ak + 1) - (ak + bf + 2) * x
        if top < rows:
            out[top] = 1.0              # P_0
        if 0 <= top - 1 < rows:
            out[top - 1] = cur[top - 1]     # P_1
        for d in range(2, top + 1):
            # P_d from P_{d-1} and P_{d-2}, for the rows of degree >= d
            act, c = min(rows, top - d + 1), d - 2
            step = nxt[:act]
            np.multiply(slope[:act, c:c + 1], x, out=step)
            step += const[:act, c:c + 1]
            step *= cur[:act]
            prev = prev[:act]
            prev *= back[:act, c:c + 1]
            step -= prev
            step /= lead[:act, c:c + 1]
            prev, cur, nxt = cur, step, prev
            if top - d < rows:
                out[top - d] = cur[top - d]
        if hi:
            # x^k as the running product ((x x) x) ..., one order for any
            # lo, hi and CPU (numpy's power is dispatched by CPU and takes
            # shortcuts for small whole exponents)
            power = np.empty((hi, x.size))
            power[:] = x
            np.multiply.accumulate(power, axis=0, out=power)   # row j: x^(j+1)
            first = max(lo, 1)
            out[first - lo:] *= power[first - 1:]
    if not np.isfinite(out).all():
        r = int(np.argmin(np.isfinite(out).all(axis=1)))
        bad = x[~np.isfinite(x)]
        raise _value_range_error(top - r, a + 2 * (lo + r), b, float(bad[0]) if bad.size else None)
    return out


def _check_step_denominators(lead, a, b, lo: int, top: int):
    """RecurrenceError for the first row whose recurrence reads a zero lead:
    row r reads the columns of degrees 2..top - r."""
    import numpy as np

    rows, degs = lead.shape
    read = np.arange(rows)[:, None] + np.arange(2, degs + 2) <= top
    vanish = np.argwhere((lead == 0) & read)
    if vanish.size:
        r, c = (int(v) for v in vanish[0])
        raise RecurrenceError(
            f"the three-term recurrence divides by zero at degree {c + 2} for "
            f"a = {a + 2 * (lo + r)}, b = {b}, m = {top - r}")


def _value_range_error(m: int, a, b, x=None) -> ValueRangeError:
    what = "leave the double range" if x is None else f"are not finite at the point x = {x}"
    return ValueRangeError(f"float values of P_m^(a,b)(1-2x) {what} for a = {a}, b = {b}, m = {m}")


def ajp_recurrence(alpha, beta, n: int) -> list[DensePoly]:
    """Members for k = n down to 0 (descending order), for n >= 0.

    Exact parameters run the downward three-term recurrence from x^n and the
    k = n - 1 member, on the integer kernel _downward_recurrence with the
    step factors of _recurrence_factors; RecurrenceError when a step's
    denominator vanishes (a negative whole alpha with alpha + 2k + 2 = 0 or
    alpha + n + k + 1 = 0). Float parameters take no step: the members are
    the float ajp_coefficients ones (at alpha = -4.0, the exact members at
    -4 rounded once), and CoefficientOverflowError names the lowest member
    that leaves the double range.
    """
    a, b, n = finite_param("alpha", alpha), finite_param("beta", beta), whole_index("n", n)
    if not (is_exact(a) and is_exact(b)):
        # built from k = 0 up, so an overflow names the lowest member
        return [_member(n, k, a, b) for k in range(n + 1)][::-1]
    (big_a, big_b), d = over_common_denominator((a, b))
    first = [0] * (n - 1) + [big_a + 2 * n * d, -(big_a + big_b + (2 * n + 1) * d)]
    return _downward_recurrence(
        n, (first, d), lambda k: _recurrence_factors(big_a, big_b, d, n, k))


def _recurrence_factors(big_a, big_b, d, n: int, k: int):
    """Factors (m1, m2, m3, den) of the step member(k) -> member(k-1),

        den member(k-1) = m1 member(k)/x - m2 member(k) - m3 member(k+1),

    at alpha = A/d and beta = B/d, each scaled by d^3: integers for integer
    A, B and d."""
    a2k = big_a + 2 * k * d
    a2k1 = a2k + d
    return (a2k1 * a2k * (a2k1 + d),
            a2k1 * ((big_a + (2 * n + 2) * d) * (big_a + big_b + (2 * k + 1) * d)
                    + 2 * (n - k) * (n - k + 1) * d * d),
            (big_a + big_b + (n + k + 2) * d) * (big_b + (n - k) * d) * a2k,
            d * (n - k + 1) * (big_a + (n + k + 1) * d) * (a2k1 + d))


def _downward_recurrence(n: int, first, factors, label: str = "member") -> list[DensePoly]:
    """Exact members k = n down to 0 (descending) of a downward
    three-term recurrence that starts from x^n.

    first = (vec, den) is the k = n - 1 member as an int vector of length
    n + 1 over den > 0; factors(k) gives integers (m1, m2, m3, den) with
    den member(k-1) = m1 member(k)/x - m2 member(k) - m3 member(k+1). Each
    member is a DensePoly, integers over one denominator, so a step is one
    integer combination of two numerator vectors over the least common
    denominator and one reduction to lowest terms.
    RecurrenceError when a member about to be divided by x has a nonzero
    constant term, or a step's den is zero."""
    members = [DensePoly([0] * n + [1], 1)]
    if n:
        members.append(DensePoly(*first))
    for k in range(n - 1, 0, -1):
        cur, q1, prev, q2 = (members[-1].numerators, members[-1].denominator,
                             members[-2].numerators, members[-2].denominator)
        if cur and cur[0]:
            raise RecurrenceError(
                f"{label} k={k} has a nonzero constant term, cannot apply 1/x step")
        m1, m2, m3, den = factors(k)
        if not den:
            raise RecurrenceError(f"the step to {label} k={k - 1} divides by zero")
        g = math.gcd(q1, q2)
        c1, c2, c3 = q2 // g * m1, q2 // g * m2, q1 // g * m3
        vec = [c1 * s - c2 * y - c3 * z for s, y, z in zip_longest(cur[1:], cur, prev, fillvalue=0)]
        members.append(DensePoly(vec, q1 // g * q2 * den))
    return members


def ajp_norm_h(p: PolyParams):
    """Squared weighted norm h = 1/(alpha+2k+1) * Gamma(alpha+n+k+2)
    Gamma(beta+n-k+1) / ((n-k)! Gamma(alpha+beta+n+k+2)), k in 0..n, where
    the diagonal integral converges, alpha + 2k + 1 > 0: the k = 0 member of
    a marginal system is refused. ValueRangeError as ajp_single_integral's
    when a float norm's (n-k)! leaves the double range (n - k > 170)."""
    return _norm_h(p.alpha, p.beta, p.n, p.k)


def _norm_h(a, b, n: int, k: int, num: int = 1, den: int = 1):
    """num/den times ajp_norm_h of member (n, k) at (a, b) as PolyParams holds them."""
    k = whole_index("k", k, 0, n)
    if not a > -2 * k - 1:      # alpha + 2k + 1 > 0, without a Fraction sum
        raise NonNormalizableError(f"member (n={n}, k={k}) is non-normalizable for alpha = {a}")
    if None not in (a2 := _doubled(a), b2 := _doubled(b)):     # exact, for every n
        return _gamma_quotient(a2 + 2 * (n + k + 2), b2 + 2 * (n - k + 1),
                               a2 + b2 + 2 * (n + k + 2), 2 * (n - k + 1),
                               2 * num, (a2 + 4 * k + 2) * den)
    ratio = gamma2_ratio(a + n + k + 2, b + n - k + 1, a + b + n + k + 2)
    try:
        return ratio / (a + 2 * k + 1) / math.factorial(n - k) * num / den
    except OverflowError:
        raise _range_error("squared norm of member", n, k, a, b, f"factorial ({n - k})!") from None


def ajp_single_integral(p: PolyParams):
    """Integral of the weighted member over [0,1], k in 0..n:
    Gamma(alpha+k+1)/k! * Gamma(beta+n-k+1)/(n-k)! * n!/Gamma(alpha+beta+n+2).
    ValueRangeError naming n, k, alpha and beta when a float Gamma ratio
    meets a binomial C(n, k) that leaves the double range (from n ~ 1030)."""
    return _single_integral(p.alpha, p.beta, p.n, p.k)


def _single_integral(a, b, n: int, k: int, num: int = 1, den: int = 1):
    """num/den times ajp_single_integral of member (n, k) at (a, b), as _norm_h."""
    k = whole_index("k", k, 0, n)
    if not a > -k - 1:          # alpha + k + 1 > 0, without a Fraction sum
        raise DivergenceError(
            f"weighted integral of member (n={n}, k={k}) diverges for alpha = {a}")
    if None not in (a2 := _doubled(a), b2 := _doubled(b)):     # exact, for every n
        return _gamma_quotient(a2 + 2 * k + 2, b2 + 2 * (n - k + 1), a2 + b2 + 2 * n + 4,
                               num=math.comb(n, k) * num, den=den)
    ratio = gamma2_ratio(a + k + 1, b + n - k + 1, a + b + n + 2)
    try:
        return ratio * math.comb(n, k) * num / den
    except OverflowError:
        raise _range_error("weighted integral of member", n, k, a, b,
                           f"binomial C({n}, {k})") from None


def _range_error(what: str, n: int, k: int, a, b, factor: str) -> ValueRangeError:
    """A float norm or integral refused: its integer factor leaves the double range."""
    return ValueRangeError(f"{what} (n={n}, k={k}) for alpha = {a}, beta = {b}: "
                           f"the {factor} leaves the double range")


def direct_norm_d(alpha, beta, n: int, k: int):
    """Squared norm of the direct-orthogonalization polynomial (n >= 0,
    k >= n): 1/(alpha+beta+2k+1) * Gamma(alpha+k+n+1) Gamma(beta+k-n+1) /
    ((k-n)! Gamma(alpha+beta+k+n+1)); ValueRangeError as ajp_norm_h's
    when a float norm's (k-n)! leaves the double range.
    """
    n, k = whole_index("n", n), whole_index("k", k, n)
    a, b = finite_param("alpha", alpha), finite_param("beta", beta)
    if not (a > -1 and b > -1):
        raise DivergenceError("direct norms need alpha > -1 and beta > -1")
    if a + b + 2 * k + 1 == 0:
        # only at k = n = 0, the removable 0 * inf case: the member is the
        # constant 1, of squared norm the Beta moment at (a, b)
        return gamma2_ratio(a + 1, b + 1, a + b + 2)
    if None not in (a2 := _doubled(a), b2 := _doubled(b)):     # exact, for every n
        return _gamma_quotient(a2 + 2 * (k + n + 1), b2 + 2 * (k - n + 1),
                               a2 + b2 + 2 * (k + n + 1), 2 * (k - n + 1), 2, a2 + b2 + 4 * k + 2)
    ratio = gamma2_ratio(a + k + n + 1, b + k - n + 1, a + b + k + n + 1)
    try:
        return ratio / (a + b + 2 * k + 1) / math.factorial(k - n)
    except OverflowError:
        raise _range_error("direct squared norm", n, k, a, b, f"factorial ({k - n})!") from None


def _jacobi_kernel(m: int, a, b) -> tuple[list[int], int]:
    """Integers c_0..c_m and one denominator D such that c_j / D is the x^j
    coefficient of the shifted Jacobi polynomial P_m^{(a,b)}(1-2x),

        (-1)^j C(m, j) (m+a)_{m-j} (m+a+b+1)^{(j)} / m!

    with (x)_r the falling and (x)^{(r)} the rising factorial: the terminating
    hypergeometric sum of Szego, Orthogonal Polynomials, 4.21. With
    d = lcm(den a, den b), A = d a and B = d b, the falling factor is
    prod_{t=j+1..m} (d t + A) / d^{m-j} and the rising one
    prod_{i<j} (d (m+1+i) + A + B) / d^j, so D = d^m m!.

    The coefficients are walked by their term ratio,

        c_{j+1} = -c_j (m-j) (d (m+1+j) + A + B) / ((j+1) (d (j+1) + A)),

    an exact division (the quotient is the next integer coefficient), so each
    step is one product and one division of a big integer by a small one.
    Zero factors bound the nonzero powers: d t + A = 0 (a = -t, 1 <= t <= m)
    zeroes every power below t, and d (m+1+i) + A + B = 0 (a + b = -(m+1+i),
    0 <= i < m) every power above i; the walk starts at the lowest nonzero
    power, built as a product. A polynomial identity in a and b, so any
    rational parameters (ints or Fractions) work, negative ones included.
    """
    (big_a, big_b), d = over_common_denominator((a, b))
    ab = big_a + big_b
    lo, hi = 0, m
    if big_a < 0:
        t, rem = divmod(-big_a, d)
        if not rem and t <= m:
            lo = t
    if ab < 0:
        i, rem = divmod(-ab, d)
        if not rem and m < i <= 2 * m:
            hi = i - m - 1
    nums = [0] * (m + 1)
    if lo <= hi:
        c = -math.comb(m, lo) if lo & 1 else math.comb(m, lo)
        for t in range(lo + 1, m + 1):
            c *= d * t + big_a
        for i in range(lo):
            c *= d * (m + 1 + i) + ab
        nums[lo] = c
        rising, falling = d * (m + 1 + lo) + ab, d * (lo + 1) + big_a     # at j = lo
        for j in range(lo, hi):
            c = c * ((j - m) * rising) // ((j + 1) * falling)
            nums[j + 1] = c
            rising += d
            falling += d
    return nums, d ** m * math.factorial(m)


def _lifted(lift: int, m: int, a, b, member, reverse: bool = False) -> DensePoly:
    """x^lift times the kernel's P_m^{(a,b)}(1-2x) at rational a and b, its
    coefficients reversed for the reciprocity route, as the polynomial of
    member = (n, k, alpha, beta): exact when alpha and beta are, else each
    integer over the kernel's denominator rounded once (CoefficientOverflowError
    naming the member when one leaves the double range)."""
    nums, den = _jacobi_kernel(m, a, b)
    nums = [0] * lift + (nums[::-1] if reverse else nums)
    if is_exact(member[2]) and is_exact(member[3]):
        return DensePoly(nums, den)
    try:
        return DensePoly([c / den for c in nums])
    except OverflowError as exc:
        raise CoefficientOverflowError(*member) from exc


def shifted_jacobi_coefficients(m: int, a, b) -> DensePoly:
    """Shifted Jacobi polynomial P_m^{(a,b)}(1-2x) on [0,1], m >= 0, from the
    hypergeometric kernel; any finite real parameters (no orthogonality
    implied for the negative ones the reciprocity route uses). Float
    parameters round each coefficient once (_lifted)."""
    a, b, m = finite_param("a", a), finite_param("b", b), whole_index("m", m)
    return _lifted(0, m, *at_binary_values(a, b), (m, 0, a, b))


def shifted_jacobi(m: int, a, b, x):
    """Value of the shifted Jacobi polynomial P_m^{(a,b)}(1-2x), m >= 0, at
    x: exact Horner on the kernel's coefficients when a, b and x are exact,
    else a float from jacobi_rows."""
    a, b, m = finite_param("a", a), finite_param("b", b), whole_index("m", m)
    if is_exact(a) and is_exact(b) and is_exact(x):
        return shifted_jacobi_coefficients(m, a, b)(x)
    return float(jacobi_rows(a, b, m, (float(x),), 0, 0)[0, 0])


def direct_coefficients(alpha, beta, n: int, k: int) -> DensePoly:
    """Direct-orthogonalization polynomial (n >= 0, k >= n): x^n times the
    shifted Jacobi polynomial of degree k-n with first parameter translated
    exactly by 2n."""
    n, k = whole_index("n", n), whole_index("k", k, n)
    a, b = finite_param("alpha", alpha), finite_param("beta", beta)
    ra, rb = at_binary_values(a, b)
    return _lifted(n, k - n, ra + 2 * n, rb, (n, k, a, b))


def reciprocity_coefficients(alpha, beta, n: int, k: int) -> DensePoly:
    """Member coefficients (n >= 0, k in 0..n) rebuilt through the
    reciprocity route: x^n * J_{n-k}^{(-alpha-beta-2n-2, beta)}(1 - 2/x),
    expanded exactly.

    The degree-(n-k) polynomial in 1/x times x^n lands on powers x^k..x^n,
    so its coefficients are the kernel's in reverse order above k zeros.
    """
    n, k = whole_index("n", n), whole_index("k", k, 0, n)
    a, b = finite_param("alpha", alpha), finite_param("beta", beta)
    ra, rb = at_binary_values(a, b)
    return _lifted(k, n - k, -ra - rb - 2 * n - 2, rb, (n, k, a, b), reverse=True)


def ajp_derivative(p: PolyParams) -> DensePoly:
    """Coefficient-wise derivative of the member polynomial."""
    return ajp_coefficients(p).derivative()


def diff_formula_residual(p: PolyParams) -> DensePoly:
    """Residual of the lowering differentiation formula (k in 0..n-1):
    dP/dx - k/x P + (alpha+beta+n+k+2) * P_{n-1,k}^{(alpha+1,beta+1)}.

    Zero polynomial iff the identity holds. The k/x term is a left shift,
    legal because the lowest power of the member is exactly k. Exact, at the
    binary values of float parameters.
    """
    whole_index("k", p.k, 0, p.n - 1)
    p = p if p.exact else PolyParams(*at_binary_values(p.alpha, p.beta), p.n, p.k)
    n, k, a, b = p.n, p.k, p.alpha, p.beta
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

    Exact, at the binary values of float parameters; k in 0..n.
    """
    whole_index("k", p.k, 0, p.n)
    p = p if p.exact else PolyParams(*at_binary_values(p.alpha, p.beta), p.n, p.k)
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
    """Residual of the lowering differential-difference relation (k in 1..n),
    connecting the member with its k-1 neighbor:

    (alpha+2k) x(1-x) P' - [-(alpha+2k)(alpha+k+1)
      + ((n+1)(alpha+beta+n+1) + (alpha+k)(alpha+beta+k) + alpha+2k) x] P
      - (n-k+1)(alpha+n+k+1) x P_{n,k-1}

    Exact, at the binary values of float parameters.
    """
    whole_index("k", p.k, 1, p.n)
    p = p if p.exact else PolyParams(*at_binary_values(p.alpha, p.beta), p.n, p.k)
    n, k, a, b = p.n, p.k, p.alpha, p.beta
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
    - [k(alpha+k+1) - n(alpha+beta+n+2)x] y, for finite alpha and beta,
    n >= 0 and k in 0..n.
    """
    a, b = finite_param("alpha", alpha), finite_param("beta", beta)
    n = whole_index("n", n)
    k = whole_index("k", k, 0, n)
    d1 = y.derivative()
    term2 = DensePoly((0, 0, 1, -1)) * d1.derivative()         # x^2(1-x) y''
    term1 = DensePoly((0, a + 2, -(a + b + 3))) * d1           # x(alpha+2-(alpha+beta+3)x) y'
    term0 = DensePoly((-k * (a + k + 1), n * (a + b + n + 2))) * y
    return term2 + term1 + term0


def ode_residual_poly(p: PolyParams) -> DensePoly:
    """The differential operator applied to the member: exact, at the binary
    values of float parameters, and the zero polynomial."""
    p = p if p.exact else PolyParams(*at_binary_values(p.alpha, p.beta), p.n, p.k)
    return ode_apply(p.alpha, p.beta, p.n, p.k, ajp_coefficients(p))


def ode_residual(p: PolyParams, x):
    """Value of the differential-equation residual at x, from the exact
    residual polynomial (ode_residual_poly); 0 for members."""
    return ode_residual_poly(p)(x)


def weight_eval(alpha, beta, x):
    """Weight x**alpha (1-x)**beta for finite alpha and beta and x in [0, 1]
    (ValueError naming x, alpha and beta outside it or at nan), exact at an
    exact x and whole exponents; DivergenceError at an endpoint whose
    exponent is negative."""
    a, b = finite_param("alpha", alpha), finite_param("beta", beta)
    if not 0 <= x <= 1:
        raise ValueError(f"weight needs x in [0, 1]: x = {x}, alpha = {alpha}, beta = {beta}")
    if (x == 0 and a < 0) or (x == 1 and b < 0):
        raise DivergenceError("weight is infinite at this endpoint")
    if is_exact(x) and type(a) is int and type(b) is int:
        xf = Fraction(x)
        return xf ** a * (1 - xf) ** b
    return float(x) ** float(a) * (1.0 - float(x)) ** float(b)


def endpoint_sign(p: PolyParams) -> int:
    """Sign of the member at x = 1, which alternates as (-1)^(n-k): exact for
    exact parameters, else from the float value of ajp_eval."""
    v = ajp_eval(p, Fraction(1) if p.exact else 1.0)
    return (v > 0) - (v < 0)
