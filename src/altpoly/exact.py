"""Exact scalar arithmetic: falling factorials, double factorials, and
gamma-function ratios evaluated as products of rational factors.

Two exact scalar kinds are used throughout the package:

* plain ``fractions.Fraction`` for rational values, and
* :class:`PiRational`, a rational multiple of pi plus a rational, which keeps
  quantities like Beta moments at half-integer exponents exact.

gamma2_ratio is the one entry point for Gamma(a)Gamma(b)/Gamma(c), behind
every Beta moment. Floats are the fallback whenever the arguments are not
rational (or have denominators other than 1 or 2, where the ratio has no
exact form here, or need a product of more than EXACT_FACTOR_CAP factors).
Its exact core, _gamma_quotient on doubled integer arguments, also takes
polycore's norms and integrals, with no factor cap.

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
    m = whole_index("m", m, -1)
    return _rising(2 - (m & 1), 2, (m + 1) >> 1)


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
        # equal to an int or Fraction when the pi part is zero, so hashed as it
        return hash((self.rat, self.pi_coeff)) if self.pi_coeff else hash(self.rat)

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
_ZERO = Fraction(0)     # a Gamma quotient's zero rat: PiRational(0, q) converts 0 each call


def _rising(start: int, step: int, m: int) -> int:
    """start (start + step) ... (start + (m - 1) step); 1 for m = 0, in
    halves so that big factors multiply (10^4 factors: ms, not a second)."""
    if start == step == 1:
        return math.factorial(m)
    if m < 64:
        return math.prod(range(start, start + m * step, step))
    return _rising(start, step, m >> 1) * _rising(start + (m >> 1) * step, step, m - (m >> 1))


def _doubled(v):
    """2v as an int for an int or a Fraction of denominator 1 or 2, else None."""
    if type(v) is int or type(v) is Fraction and v.denominator <= 2:
        return v.numerator * (2 // v.denominator)
    return None


def exact_gamma2_ratio(a, b, c):
    """Gamma(a) Gamma(b) / Gamma(c) exactly, as Fraction or PiRational, for
    positive rationals of denominator 1 or 2 with a + b - c whole: the
    _gamma_quotient of the doubled arguments over Gamma(1), which takes the
    factorial of the smaller of two whole arguments (a Beta moment at one
    huge whole exponent costs one factor) or of a whole one next to a
    half-odd one (O(a) factors for a huge whole a).

    More than EXACT_FACTOR_CAP (20,000) factors raise ExactnessError, and
    gamma2_ratio answers on its float line: beta_moment(a, 1/2) needs 2a + 1
    factors; just past the cap, at a = 10^4, its relative error is 1.1e-11.
    """
    a, b, c = (v if type(v) is int or type(v) is Fraction else Fraction(v) for v in (a, b, c))
    if a <= 0 or b <= 0 or c <= 0:
        raise ExactnessError("gamma arguments must be positive")
    a2, b2, c2 = _doubled(a), _doubled(b), _doubled(c)
    if a2 is None or b2 is None or c2 is None:
        raise ExactnessError("only denominators 1 and 2 supported exactly")
    return _gamma_quotient(a2, b2, c2, cap=EXACT_FACTOR_CAP)


def _gamma_quotient(a2: int, b2: int, c2: int, d2: int = 2, num: int = 1, den: int = 1,
                    cap: int | None = None):
    """num/den Gamma(a2/2) Gamma(b2/2) / (Gamma(c2/2) Gamma(d2/2)) for
    positive ints a2, b2, c2, an even d2 (odd: a half-odd argument) and
    positive num and den, as one Fraction, or PiRational for odd a2, b2 over
    even c2: each top pairs with a bottom of its parity (sorted when both
    could: the fewest factors), or two odd tops with Gamma(1/2)^2 = pi. A
    pair x - y = 2m is |m| factors, (y/2)(y/2 + 1)... or y(y + 2).../2^m
    (DLMF 5.5.5); more than cap of them raise ExactnessError."""
    if (a2 + b2 + c2) & 1:
        raise ExactnessError("a + b - c must be whole")
    if (a2 ^ c2) & 1 or not (a2 ^ d2) & 1 and (a2 > b2) != (c2 > d2):
        c2, d2 = d2, c2
    pi = (a2 ^ c2) & 1
    pairs = ((a2, 1), (b2, 1), (2, c2), (2, d2)) if pi else ((a2, c2), (b2, d2))
    if cap is not None and (factors := sum(abs(x - y) for x, y in pairs) >> 1) > cap:
        raise ExactnessError(f"exact Gamma ratio needs {factors} factors, more than {cap}")
    if pi:      # the pairs at once: (a2-2)!! (b2-2)!! / 2^(a2//2 + b2//2) / the factorials
        num *= _rising(1, 2, a2 >> 1) * _rising(1, 2, b2 >> 1)
        den *= math.factorial((c2 >> 1) - 1) * math.factorial((d2 >> 1) - 1)
        return PiRational(_ZERO, Fraction(num, den << (a2 >> 1) + (b2 >> 1)))
    for x, y in pairs:
        if x != y:
            low, m = min(x, y), abs(x - y) >> 1
            prod, power = (_rising(low, 2, m), 1 << m) if low & 1 else (_rising(low >> 1, 1, m), 1)
            num, den = (num * prod, den * power) if x > y else (num * power, den * prod)
    return Fraction(num, den)



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
