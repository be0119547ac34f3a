"""Reference values for the benchmark, computed with the standard library only.

Nothing here imports altpoly: every expected value comes from a closed form
or an exact computation written independently of the layer under test.

* Member coefficients use the terminating hypergeometric sum of the shifted
  Jacobi polynomial, P_m^(a,b)(1-2x) = C(m+a, m) 2F1(-m, m+a+b+1; a+1; x),
  and the composition P[n,k](x) = x^k P_(n-k)^(a+2k+1, b)(1-2x).
* Gamma ratios, Beta moments and norms are exact products of rationals times
  a power of pi, for parameters with denominator 1 or 2.
* Zeros are isolated by sign changes of the exact polynomial on a grid and
  bisected in integer fixed-point arithmetic; no floating evaluation.

Exact scalars are returned as ``(r, p)`` pairs meaning ``r * pi**p``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

FIXED_BITS = 128          # fixed-point resolution of the zero finder
ROOT_REL_BITS = 64        # bisection stops at relative width 2^-64


def _q(v) -> Fraction:
    """Exact rational value of an int, Fraction or binary float."""
    return Fraction(v)


def rising(a, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


def shifted_jacobi_coeffs(m: int, a, b) -> list:
    """Ascending x-coefficients of P_m^(a,b)(1-2x); needs a+1+j != 0."""
    a, b = _q(a), _q(b)
    c = rising(a + 1, m) / math.factorial(m)
    out = [c]
    for j in range(m):
        c = c * (j - m) * (m + a + b + 1 + j) / ((a + 1 + j) * (j + 1))
        out.append(c)
    return out


@lru_cache(maxsize=None)
def member_coeffs(alpha, beta, n: int, k: int) -> tuple:
    """Coefficients of the alternative Jacobi member (n, k), powers 0..n."""
    a, b = _q(alpha), _q(beta)
    return (Fraction(0),) * k + tuple(shifted_jacobi_coeffs(n - k, a + 2 * k + 1, b))


@lru_cache(maxsize=None)
def direct_coeffs(alpha, beta, n: int, k: int) -> tuple:
    """Direct-orthogonalization polynomial: x^n P_(k-n)^(alpha+2n, beta)(1-2x)."""
    a, b = _q(alpha), _q(beta)
    return (Fraction(0),) * n + tuple(shifted_jacobi_coeffs(k - n, a + 2 * n, b))


def strip(coeffs) -> tuple:
    """Drop trailing zeros, the normal form of a dense coefficient tuple."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_value(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def a_member(n: int, k: int) -> tuple:
    """A-kind member: the (-1, 0) alternative member."""
    return member_coeffs(-1, 0, n, k)


@lru_cache(maxsize=None)
def t_member(n: int, k: int) -> tuple:
    """T-kind member: the (-3/2, -1/2) member scaled to the value (-1)^(n-k) at x = 1."""
    raw = member_coeffs(Fraction(-3, 2), Fraction(-1, 2), n, k)
    scale = Fraction((-1) ** (n - k)) / sum(raw)
    return tuple(c * scale for c in raw)


# ------------------------------------------------------------ gamma and beta

def gamma_sqrtpi(x):
    """Gamma(x) = r * sqrt(pi)^h for x > 0 with denominator 1 or 2."""
    x = _q(x)
    if x <= 0 or x.denominator > 2:
        raise ValueError(f"no exact gamma for {x}")
    if x.denominator == 1:
        return Fraction(math.factorial(int(x) - 1)), 0
    p = int(x - Fraction(1, 2))
    return Fraction(math.factorial(2 * p), 4 ** p * math.factorial(p)), 1


def gamma_ratio(a, b, c):
    """Gamma(a) Gamma(b) / Gamma(c) as (r, p) meaning r * pi^p."""
    ra, ha = gamma_sqrtpi(a)
    rb, hb = gamma_sqrtpi(b)
    rc, hc = gamma_sqrtpi(c)
    h = ha + hb - hc
    if h not in (0, 2):
        raise ValueError("gamma ratio leaves an odd power of sqrt(pi)")
    return ra * rb / rc, h // 2


def exactly_representable(*vals) -> bool:
    return all(_q(v).denominator <= 2 for v in vals)


@lru_cache(maxsize=None)
def beta_moment(a, b):
    """Integral of x^a (1-x)^b over [0, 1] as (r, p)."""
    a, b = _q(a), _q(b)
    return gamma_ratio(a + 1, b + 1, a + b + 2)


def inner_product(p, q, alpha, beta):
    """Weighted inner product of two coefficient tuples as (r, p)."""
    prod = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci:
            for j, cj in enumerate(q):
                prod[i + j] += ci * cj
    total, power = Fraction(0), None
    a, b = _q(alpha), _q(beta)
    for s, c in enumerate(prod):
        if c:
            r, pw = beta_moment(a + s, b)
            if power is not None and pw != power:
                raise ValueError("mixed powers of pi in one inner product")
            power = pw
            total += c * r
    return total, (power or 0)


@lru_cache(maxsize=None)
def norm_h(alpha, beta, n: int, k: int):
    """Squared norm of member (n, k) under x^alpha (1-x)^beta, as (r, p)."""
    a, b = _q(alpha), _q(beta)
    r, p = gamma_ratio(a + n + k + 2, b + n - k + 1, a + b + n + k + 2)
    return r / ((a + 2 * k + 1) * math.factorial(n - k)), p


@lru_cache(maxsize=None)
def direct_norm(alpha, beta, n: int, k: int):
    a, b = _q(alpha), _q(beta)
    r, p = gamma_ratio(a + k + n + 1, b + k - n + 1, a + b + k + n + 1)
    return r / ((a + b + 2 * k + 1) * math.factorial(k - n)), p


def to_float(ref) -> float:
    r, p = ref
    return float(r) * math.pi ** p


def matches(value, ref) -> bool:
    """Exact comparison of a library scalar (int, Fraction or a pi-rational
    with public ``rat`` and ``pi_coeff`` fields) with an (r, p) pair."""
    r, p = ref
    if isinstance(value, float):
        return False
    if hasattr(value, "pi_coeff"):
        return (value.rat, value.pi_coeff) == ((0, r) if p else (r, 0))
    return value == r and (p == 0 or r == 0)


# ---------------------------------------------------------- float references

@lru_cache(maxsize=None)
def moments(a, b, count: int) -> tuple:
    """Beta moments mu_j = int x^(a+j) (1-x)^b, j < count, as floats.

    mu_0 is exact when a and b have denominator 1 or 2 and comes from
    math.lgamma otherwise; the ratios mu_j / mu_0 are exact rationals."""
    qa, qb = _q(a), _q(b)
    if exactly_representable(qa, qb):
        mu0 = to_float(beta_moment(qa, qb))
    else:
        fa, fb = float(a), float(b)
        mu0 = math.exp(math.lgamma(fa + 1) + math.lgamma(fb + 1) - math.lgamma(fa + fb + 2))
    out, ratio = [], Fraction(1)
    for j in range(count):
        out.append(mu0 * float(ratio))
        ratio *= (qa + j + 1) / (qa + qb + j + 2)
    return tuple(out)


@lru_cache(maxsize=None)
def expansion_coeffs(alpha, beta, n: int, r: int) -> tuple:
    """Coefficients of x^r in the exponential system (alpha, beta, n), k = 1..n.

    The system members are the (alpha - 1, beta) alternative members in
    x = exp(-t); for 1 <= r <= n, x^r lies in their span, so these are also
    the exact projection and collocation coefficients."""
    a, b = _q(alpha) - 1, _q(beta)
    target = (Fraction(0),) * r + (Fraction(1),)
    out = []
    for k in range(1, n + 1):
        num, p1 = inner_product(target, member_coeffs(a, b, n, k), a, b)
        den, p2 = norm_h(a, b, n, k)
        if num and p1 != p2:
            raise ValueError("projection coefficient is not rational")
        out.append(float(num / den))
    return tuple(out)


def target_norm(alpha, beta, r: int) -> float:
    """Weighted L2 norm of exp(-r t) on the semi-axis."""
    return math.sqrt(to_float(beta_moment(_q(alpha) - 1 + 2 * r, _q(beta))))


# ------------------------------------------------------------------- zeros

def _int_poly(coeffs):
    """Integer multiple of a rational polynomial with a positive factor."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [int(c * den) for c in coeffs]


class FixedPointPoly:
    """Exact sign of a rational polynomial at x = m / 2^FIXED_BITS."""

    def __init__(self, coeffs):
        ints = _int_poly(coeffs)
        deg = len(ints) - 1
        self.scaled = [c << (FIXED_BITS * (deg - j)) for j, c in enumerate(ints)]

    def sign(self, m: int) -> int:
        acc = 0
        for c in reversed(self.scaled):
            acc = acc * m + c
        return (acc > 0) - (acc < 0)


ONE = 1 << FIXED_BITS


def _isolate(poly: FixedPointPoly, n: int):
    """Grid cells (lo, hi, sign at lo) each holding exactly one of the n zeros
    in (0, 1). A cell with a sign change holds an odd number of zeros, so n
    such cells for a degree-n polynomial hold one each."""
    cells = 4 * n + 4
    while True:
        grid = sorted({int(math.ldexp(math.sin(math.pi * i / (2 * cells)) ** 2, FIXED_BITS))
                       for i in range(cells + 1)} | {0, ONE})
        signs = [poly.sign(m) for m in grid]
        if 0 in signs:
            raise ArithmeticError("grid point hit a zero exactly")
        found = [(grid[i], grid[i + 1], signs[i])
                 for i in range(len(grid) - 1) if signs[i] != signs[i + 1]]
        if len(found) == n:
            return found
        if cells > 1 << 16:
            raise ArithmeticError(f"isolated {len(found)} of {n} zeros")
        cells *= 2


def _bisect(poly: FixedPointPoly, lo: int, hi: int, s_lo: int, rel_bits: int) -> Fraction:
    while hi - lo > max(1, lo >> rel_bits):
        mid = (lo + hi) // 2
        s = poly.sign(mid)
        if s == 0:
            return Fraction(mid, ONE)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return Fraction(lo + hi, 2 * ONE)


def k0_poly(alpha, beta, n: int) -> FixedPointPoly:
    """The k = 0 associated function of the exponential system (alpha, beta)
    in x = exp(-t): the (alpha - 1, beta) member with k = 0."""
    return FixedPointPoly(member_coeffs(_q(alpha) - 1, _q(beta), n, 0))


@lru_cache(maxsize=None)
def zeros_x(alpha, beta, n: int) -> tuple:
    """Zeros in x of the associated function, ascending, as Fractions with
    relative error below 2^-64."""
    poly = k0_poly(alpha, beta, n)
    return tuple(_bisect(poly, lo, hi, s, ROOT_REL_BITS) for lo, hi, s in _isolate(poly, n))


def _exp_minus_one_bounds():
    s, term = Fraction(0), Fraction(1)
    for i in range(60):
        s += term
        term /= -(i + 1)
    m = (s.numerator << FIXED_BITS) // s.denominator
    return m - 1, m + 1            # 1/e lies strictly between, error of s < 1/60!


E_LO, E_HI = _exp_minus_one_bounds()


@lru_cache(maxsize=None)
def lambda_max(alpha, beta, n: int, rel_bits: int = ROOT_REL_BITS) -> float:
    """Largest zero in t = -ln x of the associated function."""
    poly = k0_poly(alpha, beta, n)
    lo, hi, s = _isolate(poly, n)[0]
    return -math.log(_bisect(poly, lo, hi, s, rel_bits))


def lambda_max_at_most_one(alpha, beta, n: int) -> bool:
    """Exact test of lambda_max <= 1, i.e. smallest zero in x >= 1/e."""
    poly = k0_poly(alpha, beta, n)
    lo, hi, s = _isolate(poly, n)[0]
    if hi <= E_LO:
        return False
    if lo >= E_HI:
        return True
    s_lo, s_hi = poly.sign(E_LO), poly.sign(E_HI)
    if s_lo != s_hi:
        raise ArithmeticError("a zero lies within 2^-127 of 1/e")
    return s_lo == s


@lru_cache(maxsize=None)
def z_choice(n: int, omega, limit: int = 64):
    """Whole exponent in 0..limit maximizing the largest zero subject to it
    staying <= 1 (beta = omega * alpha), ties to the smallest; None if no
    candidate qualifies. Returns (alpha, lambda_max)."""
    om = _q(omega)
    best = None
    for a in range(limit + 1):
        alpha = Fraction(a)
        if not (alpha > -1 and om * alpha > -1):
            continue
        if not lambda_max_at_most_one(alpha, om * alpha, n):
            continue
        lam = lambda_max(alpha, om * alpha, n, 40)
        if best is None or lam > best[1]:
            best = (alpha, lam)
    if best is None:
        return None
    return best[0], lambda_max(best[0], om * best[0], n)
