"""Alternative Jacobi polynomials on [0,1] and the classical shifted Jacobi
polynomials they are tied to.

A family member is indexed by (alpha, beta, n, k): degree exactly n, lowest
power exactly k, orthogonal under the weight x**alpha (1-x)**beta when the
parameters allow. The lower index runs downward, k = n..0, which is what the
downward three-term recurrence follows.

Arithmetic is exact (fractions) whenever alpha and beta are rational; float
otherwise. Every exact coefficient vector comes from one kernel: the
terminating hypergeometric sum of the shifted Jacobi polynomial, whose x^j
coefficients are integers over the common denominator d^m m!,
d = lcm(den a, den b), each the previous one times the small term ratio.
A member is x^k times the kernel at (n - k, alpha + 2k + 1, beta); the
direct family and the reciprocity route call the same kernel. The kernel
and the one exact downward-recurrence kernel (_downward_recurrence, which
marginal's A and T recurrences share) work on Python integers and build
one Fraction per output coefficient at the end.
Gamma-function ratios in the norm and integral formulas are evaluated as
products of rational factors, never through a floating gamma, so exact mode
stays exact.

Every float member value comes from one evaluator, jacobi_rows: the
three-term recurrence of P_m^(a,b)(1-2x) in x, over a vector of points and a
range of members at once. ajp_eval, shifted_jacobi and endpoint_sign use it
whenever the parameters or x are floats (exact ones at an exact x keep exact
Horner), as do exppoly.member_values (every exponential and Z value, the
k = 0 associated function included), marginal's figure data and the CLI's
float tabulate. Float Horner on the expanded coefficients cancels on [0, 1]
(off by 2e5 at n = 30 for members of size 7). Float coefficients are the
exact ones at the binary values of float parameters, each rounded once
(_round_once), whether ajp_coefficients or ajp_recurrence builds them; they
serve `coeffs --mode float` and the zero guard of exppoly.zero_sets.
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
    ValueRangeError,
)
from .exact import (
    ExactnessError,
    exact_gamma2_ratio,
    float_gamma2_ratio,
    is_exact,
    over_common_denominator,
    simplify_scalar,
)
from .poly import DensePoly
from .quad import beta_moment


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


def ajp_coefficients(p: PolyParams) -> DensePoly:
    """Monomial coefficients of the member polynomial.

    x^k times the shifted Jacobi polynomial P_{n-k}^{(alpha+2k+1, beta)}(1-2x),
    from the integer kernel: one Fraction per coefficient for exact
    parameters; for float parameters the exact value at their binary values,
    rounded once, and CoefficientOverflowError when one leaves the double
    range.

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
    # alpha's binary value, shifted exactly
    return DensePoly(_lifted(n - k, Fraction(a) + 2 * k + 1, b, k, p.exact, (n, k, a, b)))


def ajp_eval(p: PolyParams, x):
    """Value of the member at x: exact Horner on the exact coefficients when
    the parameters and x are exact, else a float from ajp_values."""
    if p.exact and is_exact(x):
        return ajp_coefficients(p)(x)
    return float(ajp_values(p, (float(x),))[0])


def ajp_values(p: PolyParams, xs):
    """Float values of the member at the points xs, as a numpy array:
    x^k P_{n-k}^{(alpha+2k+1, beta)}(1-2x), the one row k of jacobi_rows."""
    if p.is_sentinel:
        import numpy as np
        return np.zeros(len(xs))
    return jacobi_rows(p.alpha + 1, p.beta, p.n, xs, p.k, p.k)[0]


def jacobi_rows(a, b, n: int, xs, lo: int = 0, hi: int | None = None):
    """Float values of x^k P_{n-k}^{(a+2k, b)}(1-2x) for k = lo..hi (hi = n
    by default) at the points xs, as a numpy array whose row k - lo is the
    k-th. These are the alternative-family members at alpha = a - 1 and the
    exponential-system members at alpha = a, and this is the one float
    evaluator of member values.

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
    ValueRangeError names them when a value is not finite.
    """
    import numpy as np

    hi = n if hi is None else hi
    if not 0 <= lo <= hi + 1 <= n + 1:
        raise ValueError(f"need 0 <= lo <= hi + 1 <= n + 1, got lo = {lo}, hi = {hi}, n = {n}")
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
        raise _value_range_error(top - r, a + 2 * (lo + r), b)
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


def _value_range_error(m: int, a, b) -> ValueRangeError:
    return ValueRangeError(f"float values of P_m^(a,b)(1-2x) leave the double range "
                           f"for a = {a}, b = {b}, m = {m}")


def ajp_recurrence(alpha, beta, n: int, up_to_k: int = 0) -> list[DensePoly]:
    """Downward three-term recurrence on coefficient vectors.

    Returns members for k = n down to up_to_k (descending order), from x^n
    and the k = n - 1 member, on the integer kernel _downward_recurrence
    with the step factors of _recurrence_factors. Float parameters run at
    their exact binary values and each member is rounded once, so it is the
    float ajp_coefficients member bit for bit, and CoefficientOverflowError
    names the member whose coefficients leave the double range.
    RecurrenceError when a step's denominator vanishes (a negative whole
    alpha with alpha + 2k + 2 = 0 or alpha + n + k + 1 = 0).
    """
    a, b = _param(alpha), _param(beta)
    if n < 0 or not 0 <= up_to_k <= n:
        raise ValueError("need 0 <= up_to_k <= n")
    (big_a, big_b), d = over_common_denominator((Fraction(a), Fraction(b)))
    first = [0] * (n - 1) + [big_a + 2 * n * d, -(big_a + big_b + (2 * n + 1) * d)]
    finish = _fraction_member if is_exact(a) and is_exact(b) else (
        lambda k, p, q, vec: DensePoly(_round_once([p * v for v in vec], q, (n, k, a, b))))
    return _downward_recurrence(
        n, (first, d), lambda k: _recurrence_factors(big_a, big_b, d, n, k), up_to_k,
        finish=finish)


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


def _fraction_member(_k: int, num: int, den: int, vec) -> DensePoly:
    """num/den times the int vector vec, one Fraction per coefficient."""
    zero = Fraction(0)
    return DensePoly([Fraction(num * v, den) if v else zero for v in vec])


def _downward_recurrence(n: int, first, factors, up_to_k: int = 0,
                         label: str = "member", finish=_fraction_member) -> list[DensePoly]:
    """Exact members k = n down to up_to_k (descending) of a downward
    three-term recurrence that starts from x^n.

    first = (vec, den) is the k = n - 1 member as an int vector of length
    n + 1 over den > 0; factors(k) gives integers (m1, m2, m3, den) with
    den member(k-1) = m1 member(k)/x - m2 member(k) - m3 member(k+1). Each
    member is held as num/den times a primitive int vector, so a step is one
    gcd of the two scales, one integer combination of three vectors and one
    vector gcd; finish(k, num, den, vec) builds member k at the end, by
    default one Fraction per coefficient.
    RecurrenceError when a member about to be divided by x has a nonzero
    constant term, or a step's den is zero."""

    def held(num, den, vec):
        """num/den times vec as (num', den', primitive vec), den' > 0."""
        h = math.gcd(*vec)
        if not h:
            return 0, 1, vec
        if h > 1:
            vec = [v // h for v in vec]
        num *= h
        r = math.gcd(num, den)
        if den < 0:
            r = -r
        return num // r, den // r, vec

    members = [(1, 1, [0] * n + [1])]
    if up_to_k < n:
        members.append(held(1, first[1], first[0]))
    for k in range(n - 1, up_to_k, -1):
        (p1, q1, cur), (p2, q2, prev) = members[-1], members[-2]
        if cur[0]:
            raise RecurrenceError(
                f"{label} k={k} has a nonzero constant term, cannot apply 1/x step")
        m1, m2, m3, den = factors(k)
        if not den:
            raise RecurrenceError(f"the step to {label} k={k - 1} divides by zero")
        # the two scales over the common denominator q1 q2, less their gcd g
        u1, u2 = p1 * q2, p2 * q1
        g = math.gcd(u1, u2) or 1
        c1, c2, c3 = u1 // g * m1, u1 // g * m2, u2 // g * m3
        vec = [c1 * s - c2 * y - c3 * z for s, y, z in zip(cur[1:] + [0], cur, prev)]
        members.append(held(g, q1 * q2 * den, vec))
    out = []
    while members:
        p, q, vec = members.pop()       # each int vector is freed once converted
        out.append(finish(n - len(members), p, q, vec))
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
    if a + b + 2 * k + 1 == 0:
        # only at k = n = 0: the closed form is the removable 0 * inf case,
        # and the member is the constant 1
        return beta_moment(a, b)
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
    prod_{i<j} (d (m+1+i) + A + B) / d^j, so D = d^m m!.

    The coefficients are walked by their term ratio,

        c_{j+1} = -c_j (m-j) (d (m+1+j) + A + B) / ((j+1) (d (j+1) + A)),

    an exact division (the quotient is the next integer coefficient), so each
    step is one product and one division of a big integer by a small one.
    Zero factors bound the nonzero powers: d t + A = 0 (a = -t, 1 <= t <= m)
    zeroes every power below t, and d (m+1+i) + A + B = 0 (a + b = -(m+1+i),
    0 <= i < m) every power above i; the walk starts at the lowest nonzero
    power, built as a product. A polynomial identity in a and b, so any
    rational parameters work, negative ones included.
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


def _round_once(nums, den: int, member) -> list[float]:
    """nums[i] / den, each rounded once to a float (an integer true division,
    correctly rounded); CoefficientOverflowError naming member = (n, k,
    alpha, beta) when one leaves the double range."""
    try:
        return [c / den for c in nums]
    except OverflowError as exc:
        raise CoefficientOverflowError(*member) from exc


def _lifted(m: int, a, b, lift: int, exact: bool, member) -> list:
    """Coefficients of x^lift P_m^{(a,b)}(1-2x), powers 0..m+lift, at the
    rational (or binary float) a and b: Fractions when exact, else each
    rounded once (_round_once, naming member)."""
    nums, den = _jacobi_kernel(m, Fraction(a), Fraction(b))
    if exact:
        return [Fraction(0)] * lift + [Fraction(c, den) for c in nums]
    return [0.0] * lift + _round_once(nums, den, member)


def rounded_jacobi_coefficients(m: int, a, b) -> list[float]:
    """Coefficients of P_m^{(a,b)}(1-2x), powers 0..m, each the exact value at
    the rational (or binary float) a and b rounded once to a float;
    CoefficientOverflowError naming n = m, k = 0, alpha = a and beta = b
    when one leaves the double range."""
    return _lifted(m, a, b, 0, False, (m, 0, a, b))


def shifted_jacobi_coefficients(m: int, a, b) -> DensePoly:
    """Shifted Jacobi polynomial P_m^{(a,b)}(1-2x) on [0,1], from the
    hypergeometric kernel; any real parameters (no orthogonality implied for
    the negative ones the reciprocity route uses). Float parameters round
    each coefficient once, as rounded_jacobi_coefficients."""
    a, b = _param(a), _param(b)
    return DensePoly(_lifted(m, a, b, 0, is_exact(a) and is_exact(b), (m, 0, a, b)))


def shifted_jacobi(m: int, a, b, x):
    """Value of the shifted Jacobi polynomial P_m^{(a,b)}(1-2x) at x: exact
    Horner on the kernel's coefficients when a, b and x are exact, else a
    float from jacobi_rows."""
    a, b = _param(a), _param(b)
    if is_exact(a) and is_exact(b) and is_exact(x):
        return shifted_jacobi_coefficients(m, a, b)(x)
    return float(jacobi_rows(a, b, m, (float(x),), 0, 0)[0, 0])


def direct_coefficients(alpha, beta, n: int, k: int) -> DensePoly:
    """Direct-orthogonalization polynomial: x^n times the shifted Jacobi
    polynomial of degree k-n with first parameter translated by 2n."""
    if k < n:
        raise ValueError("direct family is indexed by k >= n")
    a, b = _param(alpha), _param(beta)
    return DensePoly(_lifted(k - n, a + 2 * n, b, n, is_exact(a) and is_exact(b), (n, k, a, b)))


def reciprocity_coefficients(alpha, beta, n: int, k: int) -> DensePoly:
    """Member coefficients rebuilt through the reciprocity route:
    x^n * J_{n-k}^{(-alpha-beta-2n-2, beta)}(1 - 2/x), expanded exactly.

    The degree-(n-k) polynomial in 1/x times x^n lands on powers x^k..x^n,
    so its coefficients are the kernel's in reverse order above k zeros.
    """
    a, b = _param(alpha), _param(beta)
    q = _lifted(n - k, -a - b - 2 * n - 2, b, k, is_exact(a) and is_exact(b), (n, k, a, b))
    return DensePoly(q[:k] + q[k:][::-1])


def ajp_derivative(p: PolyParams) -> DensePoly:
    """Coefficient-wise derivative of the member polynomial."""
    return ajp_coefficients(p).derivative()


def _at_binary_values(p: PolyParams) -> PolyParams:
    """p with float parameters replaced by their exact binary values.

    The residuals below are exact at any parameters: in float coefficients
    they are cancellation noise (|ode residual| 8e8 at (0.5, 0.5), n = 30,
    for members below 200)."""
    return p if p.exact else PolyParams(Fraction(p.alpha), Fraction(p.beta), p.n, p.k)


def diff_formula_residual(p: PolyParams) -> DensePoly:
    """Residual of the lowering differentiation formula (k < n):
    dP/dx - k/x P + (alpha+beta+n+k+2) * P_{n-1,k}^{(alpha+1,beta+1)}.

    Zero polynomial iff the identity holds. The k/x term is a left shift,
    legal because the lowest power of the member is exactly k. Exact, at the
    binary values of float parameters.
    """
    p = _at_binary_values(p)
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

    Exact, at the binary values of float parameters.
    """
    p = _at_binary_values(p)
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

    Exact, at the binary values of float parameters.
    """
    p = _at_binary_values(p)
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
    """The differential operator applied to the member: exact, at the binary
    values of float parameters, and the zero polynomial."""
    p = _at_binary_values(p)
    return ode_apply(p.alpha, p.beta, p.n, p.k, ajp_coefficients(p))


def ode_residual(p: PolyParams, x):
    """Value of the differential-equation residual at x, from the exact
    residual polynomial (ode_residual_poly); 0 for members."""
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
    """Sign of the member at x = 1, which alternates as (-1)^(n-k): exact for
    exact parameters, else from the float value of ajp_eval."""
    v = ajp_eval(p, Fraction(1) if p.exact else 1.0)
    return (v > 0) - (v < 0)
