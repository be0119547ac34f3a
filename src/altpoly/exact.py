"""Exact scalar arithmetic: falling factorials, double factorials, and
gamma-function ratios evaluated as products of rational factors.

Two exact scalar kinds are used throughout the package:

* plain ``fractions.Fraction`` for rational values, and
* :class:`PiRational`, a rational multiple of pi plus a rational, which keeps
  quantities like Beta moments at half-integer exponents exact.

gamma2_ratio is the one entry point for Gamma(a)Gamma(b)/Gamma(c), behind
every norm, single integral and Beta moment. Floats are the fallback
whenever the arguments are not rational (or have denominators other than 1
or 2, where the ratio has no exact form here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from .errors import ValueRangeError


class ExactnessError(ValueError):
    """The requested value has no exact rational (or pi-rational) form."""


def is_exact(v) -> bool:
    """True for values participating in exact arithmetic (ints, Fractions, PiRational)."""
    return isinstance(v, (int, Rational, PiRational)) and not isinstance(v, bool)


def at_binary_values(*values) -> tuple:
    """The values unchanged when every one is exact; else each as the
    Fraction of its exact binary value, so that exact arithmetic on them
    rounds nothing beyond the floats' own rounding. The identity residuals
    run on it at float parameters (in float coefficients they are
    cancellation noise: |ode residual| 8e8 at (0.5, 0.5), n = 30), and
    weighted_inner_product at float coefficients."""
    return values if all(is_exact(v) for v in values) else tuple(Fraction(v) for v in values)


def falling_factorial(a, m: int):
    """(a)_m = a (a-1) ... (a-m+1); empty product (m = 0) is 1."""
    if m < 0:
        raise ValueError("falling factorial needs m >= 0")
    result = 1.0 if isinstance(a, float) else Fraction(1)
    for i in range(m):
        result *= a - i
    return result


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integers c_i and the least D > 0 with values[i] == c_i / D, for ints
    and Fractions: the form the exact layer computes in."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def double_factorial(m: int):
    """m!! with the conventions 0!! = 1 and (-1)!! = 1."""
    if m < -1:
        raise ValueError("double factorial defined for m >= -1 only")
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


@dataclass(frozen=True)
class PiRational:
    """Exact value rat + pi_coeff * pi."""

    rat: Fraction
    pi_coeff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rat", Fraction(self.rat))
        object.__setattr__(self, "pi_coeff", Fraction(self.pi_coeff))

    def __add__(self, other):
        if isinstance(other, PiRational):
            return PiRational(self.rat + other.rat, self.pi_coeff + other.pi_coeff)
        if isinstance(other, (int, Fraction)):
            return PiRational(self.rat + other, self.pi_coeff)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PiRational(-self.rat, -self.pi_coeff)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PiRational) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiRational(self.rat * other, self.pi_coeff * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiRational(self.rat / other, self.pi_coeff / other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, PiRational):
            return self.rat == other.rat and self.pi_coeff == other.pi_coeff
        if isinstance(other, (int, Fraction)):
            return self.pi_coeff == 0 and self.rat == other
        return NotImplemented

    def __hash__(self):
        return hash((self.rat, self.pi_coeff))

    def __bool__(self):
        return bool(self.rat) or bool(self.pi_coeff)

    def __float__(self):
        return float(self.rat) + float(self.pi_coeff) * math.pi

    def __str__(self):
        if self.pi_coeff == 0:
            return str(self.rat)
        pi_part = "pi" if self.pi_coeff == 1 else f"{self.pi_coeff}*pi"
        if self.rat == 0:
            return pi_part
        return f"{self.rat}+{pi_part}" if self.pi_coeff > 0 else f"{self.rat}{pi_part}"


def simplify_scalar(v):
    """Collapse a PiRational with zero pi part back to a Fraction."""
    if isinstance(v, PiRational) and v.pi_coeff == 0:
        return v.rat
    return v


@lru_cache(maxsize=None)
def _half_gamma_over_sqrt_pi(p: int) -> Fraction:
    """Gamma(p + 1/2) / sqrt(pi) = (2p)! / (4^p p!) for whole p >= 0."""
    if p < 0:
        raise ExactnessError("gamma at half-integers <= -1/2 not handled")
    return Fraction(math.factorial(2 * p), 4 ** p * math.factorial(p))


def _den(v: Fraction) -> int:
    return Fraction(v).denominator


def gamma_quotient(x, y) -> Fraction:
    """Gamma(x)/Gamma(y) for x - y a whole number, as an exact product.

    Both arguments must be positive rationals. With m = |x - y| and s = p/q
    the smaller argument, the quotient is prod_{i<m} (p + i q) / q^m or its
    reciprocal: one integer product, one Fraction.
    """
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise ExactnessError("gamma_quotient needs positive arguments")
    diff = x - y
    if diff.denominator != 1:
        raise ExactnessError("gamma_quotient needs integer argument difference")
    m = int(diff)
    low = y if m >= 0 else x      # Gamma(low + |m|)/Gamma(low) = low (low+1) ... (low+|m|-1)
    p, q = low.numerator, low.denominator
    prod = 1
    for i in range(abs(m)):
        prod *= p + i * q
    power = q ** abs(m)
    return Fraction(prod, power) if m >= 0 else Fraction(power, prod)


def exact_gamma2_ratio(a, b, c):
    """Gamma(a) Gamma(b) / Gamma(c) exactly, as Fraction or PiRational.

    Supported regimes (all arguments positive rationals with denominator 1 or 2,
    and a + b - c a whole number):

    * a and b whole: the factorial of the smaller, the larger paired with c,
      so a Beta moment at one huge whole exponent, Gamma(a+1)Gamma(1)/Gamma(a+2),
      costs one factor.
    * one of a, b whole: the factorial of the whole one, the half-odd paired
      with c. Their difference is about the whole one, so a huge whole
      argument next to a half-odd one costs O(a) factors.
    * a and b both half-odd: Gamma(a)Gamma(b) = pi * rational, c then whole.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0 or b <= 0 or c <= 0:
        raise ExactnessError("gamma arguments must be positive")
    if _den(a) > 2 or _den(b) > 2 or _den(c) > 2:
        raise ExactnessError("only denominators 1 and 2 supported exactly")
    if (a + b - c).denominator != 1:
        raise ExactnessError("a + b - c must be whole")
    if a.denominator == b.denominator == 1:
        small, large = sorted((a, b))
        return math.factorial(int(small) - 1) * gamma_quotient(large, c)
    if _den(a) == 1:
        # Gamma(a) is a factorial, Gamma(b)/Gamma(c) has whole difference
        return math.factorial(int(a) - 1) * gamma_quotient(b, c)
    if _den(b) == 1:
        return math.factorial(int(b) - 1) * gamma_quotient(a, c)
    # both half-odd, so c is whole
    p = int(a - Fraction(1, 2))
    q = int(b - Fraction(1, 2))
    rat = _half_gamma_over_sqrt_pi(p) * _half_gamma_over_sqrt_pi(q) / math.factorial(int(c) - 1)
    return PiRational(0, rat)


def gamma2_ratio(a, b, c):
    """Gamma(a) Gamma(b) / Gamma(c): exact_gamma2_ratio, simplified to a
    Fraction where the pi part is zero, when a, b and c are exact and the
    ratio has an exact form; otherwise exp(lgamma(a) + lgamma(b) -
    lgamma(c)) on the arguments, each rounded once to a float.
    ValueRangeError naming a, b and c when that float leaves the double
    range."""
    if is_exact(a) and is_exact(b) and is_exact(c):
        try:
            return simplify_scalar(exact_gamma2_ratio(a, b, c))
        except ExactnessError:
            pass
    try:
        return math.exp(math.lgamma(float(a)) + math.lgamma(float(b)) - math.lgamma(float(c)))
    except OverflowError:
        raise ValueRangeError(
            f"Gamma({a}) Gamma({b}) / Gamma({c}) leaves the double range") from None
