"""Exact scalar arithmetic: falling factorials, double factorials, and
gamma-function ratios evaluated as products of rational factors.

Two exact scalar kinds are used throughout the package:

* plain ``fractions.Fraction`` for rational values, and
* :class:`PiRational`, a rational multiple of pi plus a rational, which keeps
  quantities like Beta moments at half-integer exponents exact.

gamma2_ratio is the one entry point for Gamma(a)Gamma(b)/Gamma(c), behind
every norm, single integral and Beta moment. Floats are the fallback
whenever the arguments are not rational (or have denominators other than 1
or 2, where the ratio has no exact form here, or need a product of more
than EXACT_FACTOR_CAP factors).

exact_param normalizes a parameter once where it enters the library: floats
stay floats, whole rationals become ints, other rationals Fractions;
finite_param adds the refusal of an infinite or nan float by name.
whole_index is the one check of an index n, k, l or m: whole, and in the
range its entry point states.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational, Real

from .errors import ValueRangeError


class ExactnessError(ValueError):
    """The requested value has no exact rational (or pi-rational) form."""


def is_exact(v) -> bool:
    """True for values participating in exact arithmetic (ints, Fractions, PiRational)."""
    if type(v) is int or type(v) is Fraction:
        return True
    return isinstance(v, (int, Rational, PiRational)) and not isinstance(v, bool)


def exact_param(v):
    """A parameter as the arithmetic runs on it, normalized once where it
    enters: a float (numpy's included) stays a float, a whole rational
    becomes an int (so its shifts and sums are int arithmetic), any other
    rational a Fraction; strings such as "7/2" are read as Fractions."""
    if type(v) is int or isinstance(v, float):
        return v
    if type(v) is not Fraction:
        if isinstance(v, Real) and not isinstance(v, Rational):
            return v
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def finite_param(name: str, v):
    """exact_param(v), refused with a ValueError naming it when it is an
    infinite or nan float: how alpha, beta and omega enter every entry point
    but beta_moment, where an infinite exponent is a ValueRangeError."""
    if type(v) is int:      # PolyParams' whole parameters skip a call
        return v
    v = exact_param(v)
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {name} = {v}")
    return v


def whole_index(name: str, v, lo: int = 0, hi: int | None = None) -> int:
    """v as an int when it is whole by type (an int, or an integer type such
    as numpy's) and lies in lo..hi (no upper bound for hi = None): the one
    check of every index the library takes. Otherwise a ValueError naming
    it, "n must be a whole number, got n = 2.5" (3.0 too) or "k = 5 outside
    0..4" ("n = -1 outside 0..inf" without an upper bound)."""
    if type(v) is not int:
        try:
            v = operator.index(v)
        except TypeError:
            raise ValueError(f"{name} must be a whole number, got {name} = {v}") from None
    if v < lo or hi is not None and v > hi:
        raise ValueError(f"{name} = {v} outside {lo}..{'inf' if hi is None else hi}")
    return v


def at_binary_values(*values) -> tuple:
    """The values unchanged when every one is exact; else each as the
    Fraction of its exact binary value, so that exact arithmetic on them
    rounds nothing beyond the floats' own rounding. The identity residuals
    run on it at float parameters (in float coefficients they are
    cancellation noise: |ode residual| 8e8 at (0.5, 0.5), n = 30), and
    weighted_inner_product at float coefficients."""
    return values if all(is_exact(v) for v in values) else tuple(Fraction(v) for v in values)


def falling_factorial(a, m: int):
    """(a)_m = a (a-1) ... (a-m+1) for m >= 0; empty product (m = 0) is 1."""
    result = 1.0 if isinstance(a, float) else Fraction(1)
    for i in range(whole_index("m", m)):
        result *= a - i
    return result


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integers c_i and the least D > 0 with values[i] == c_i / D, for ints
    and Fractions: the form the exact layer computes in."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def double_factorial(m: int):
    """m!! for m >= -1, with the conventions 0!! = 1 and (-1)!! = 1."""
    m, result = whole_index("m", m, -1), 1
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
        if type(self.rat) is not Fraction:
            object.__setattr__(self, "rat", Fraction(self.rat))
        if type(self.pi_coeff) is not Fraction:
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


# Most factors one exact Gamma ratio multiplies; see exact_gamma2_ratio.
EXACT_FACTOR_CAP = 20_000


def _rising(start: int, step: int, m: int) -> int:
    """start (start + step) ... (start + (m - 1) step); 1 for m = 0."""
    return math.prod(range(start, start + m * step, step))


def _numerator_denominator(v) -> tuple[int, int]:
    if type(v) is not int and type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator, v.denominator


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

    It computes on the integers 2a, 2b and 2c and builds one Fraction at the
    end. A whole argument's Gamma is a factorial; Gamma(p + 1/2)/sqrt(pi) is
    (2p-1)!!/2^p (DLMF 5.5.5), so a ratio of half-odd arguments with a whole
    difference is a product of odd numbers over a power of 2.

    A ratio needing more than EXACT_FACTOR_CAP (20,000) factors raises
    ExactnessError, and gamma2_ratio answers on its float line. A huge whole
    argument next to a half-odd one gets there: beta_moment(a, 1/2) needs
    2a + 1 factors, and at a = 10^5 its exact value is a fraction of
    200,000-bit integers that took seconds. Just past the cap, at
    beta_moment(10^4, 1/2), the float line is off by 1.1e-11 relative.
    """
    (na, da), (nb, db), (nc, dc) = map(_numerator_denominator, (a, b, c))
    if na <= 0 or nb <= 0 or nc <= 0:
        raise ExactnessError("gamma arguments must be positive")
    if da > 2 or db > 2 or dc > 2:
        raise ExactnessError("only denominators 1 and 2 supported exactly")
    # the doubled arguments: odd for a half-odd argument, even for a whole one
    a2, b2, c2 = na * (2 // da), nb * (2 // db), nc * (2 // dc)
    if (a2 + b2 - c2) & 1:
        raise ExactnessError("a + b - c must be whole")
    if a2 & 1 and b2 & 1:
        # Gamma(a) Gamma(b) / pi = (a2-2)!! (b2-2)!! / 2^((a2-1)/2 + (b2-1)/2), c whole
        halves, c = (a2 >> 1) + (b2 >> 1), c2 >> 1
        _check_cap(halves + c - 1)
        odd = _rising(1, 2, a2 >> 1) * _rising(1, 2, b2 >> 1)
        return PiRational(0, Fraction(odd, math.factorial(c - 1) << halves))
    # the factorial of the whole one (the smaller of two), the other over c
    if a2 & 1 or b2 & 1:
        whole, paired = (a2, b2) if b2 & 1 else (b2, a2)
    else:
        whole, paired = min(a2, b2), max(a2, b2)
    m = (paired - c2) >> 1
    _check_cap((whole >> 1) - 1 + abs(m))
    low = c2 if m >= 0 else paired
    if low & 1:
        # Gamma(low/2 + |m|) / Gamma(low/2) = low (low + 2) ... / 2^|m|
        prod, power = _rising(low, 2, abs(m)), 1 << abs(m)
    else:
        prod, power = _rising(low >> 1, 1, abs(m)), 1
    fact = math.factorial((whole >> 1) - 1)
    return Fraction(fact * prod, power) if m >= 0 else Fraction(fact * power, prod)


def _check_cap(factors: int) -> None:
    if factors > EXACT_FACTOR_CAP:
        raise ExactnessError(
            f"exact Gamma ratio needs {factors} factors, more than {EXACT_FACTOR_CAP}")


def gamma2_ratio(a, b, c):
    """Gamma(a) Gamma(b) / Gamma(c): exact_gamma2_ratio, simplified to a
    Fraction where the pi part is zero, when a, b and c are exact and the
    ratio has an exact form within EXACT_FACTOR_CAP factors; otherwise exp(lgamma(a) + lgamma(b) -
    lgamma(c)) on the arguments, each rounded once to a float.
    ValueRangeError naming a, b and c when that float leaves the double
    range or is nan (an infinite or nan argument: inf - inf)."""
    if is_exact(a) and is_exact(b) and is_exact(c):
        try:
            return simplify_scalar(exact_gamma2_ratio(a, b, c))
        except ExactnessError:
            pass
    try:
        value = math.exp(math.lgamma(float(a)) + math.lgamma(float(b)) - math.lgamma(float(c)))
    except OverflowError:
        value = math.inf
    if value < math.inf:
        return value
    raise ValueRangeError(f"Gamma({a}) Gamma({b}) / Gamma({c}) leaves the double range")
