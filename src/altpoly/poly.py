"""Dense univariate polynomials over exact rationals or floats.

Coefficients are ascending (coefficient i multiplies ``x**i``) with trailing
zeros stripped, so the top one is nonzero unless the polynomial is zero.
An exact polynomial (int and Fraction coefficients) is one tuple of integers
over one positive denominator in lowest terms, the form of FLINT's
fmpq_poly: ``numerators[i] / denominator`` is coefficient i. Its arithmetic
and Horner at a rational x run on those integers, with at most one vector
gcd per result, and ``coeffs`` builds its Fractions when read (ints when
every coefficient and factor it came from was an int). A polynomial with a
float coefficient keeps its coefficient tuple (numerators None) and runs
term by term, an exact operand entering through its ``coeffs``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .exact import over_common_denominator


class DensePoly:
    """DensePoly(coeffs) of ints, Fractions or floats, or DensePoly(nums,
    den), the exact polynomial with integer numerators nums over den."""

    __slots__ = ("numerators", "denominator", "_ints", "_coeffs")

    def __init__(self, coeffs=(), denominator=None):
        terms = _stripped(coeffs)
        ints = denominator is None and all(type(c) is int for c in terms)
        if denominator is not None:
            terms, denominator = _reduced(terms, denominator)
        elif not ints and all(isinstance(c, Rational) for c in terms):
            # the least common denominator of reduced Fractions is in lowest terms
            terms, denominator = over_common_denominator([Fraction(c) for c in terms])
        exact = ints or denominator is not None
        self.numerators, self._coeffs = (tuple(terms), None) if exact else (None, tuple(terms))
        self.denominator, self._ints = (denominator or 1) if exact else None, ints

    @classmethod
    def _from(cls, terms, den, ints: bool = False, reduce: bool = True) -> "DensePoly":
        """Integer terms over den > 0 in lowest terms (already, when reduce is
        false); den None gives the float polynomial terms."""
        if den is None:
            return cls(terms)
        terms, poly = _stripped(terms), cls.__new__(cls)
        terms, den = _reduced(terms, den) if reduce else (terms, den)
        poly.numerators, poly.denominator, poly._ints, poly._coeffs = tuple(terms), den, ints, None
        return poly

    @classmethod
    def zero(cls) -> "DensePoly":
        return cls(())

    @classmethod
    def one(cls) -> "DensePoly":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "DensePoly":
        return cls((0,) * power + (coeff,))

    @property
    def coeffs(self) -> tuple:
        """The float tuple, or the exact coefficients built on each read and
        not kept, so that a polynomial holds its integers only."""
        if self.numerators is None or self._ints:
            return self._terms
        den, zero = self.denominator, Fraction(0)
        return tuple(Fraction(c, den) if c else zero for c in self.numerators)

    @property
    def _terms(self) -> tuple:
        return self._coeffs if self.numerators is None else self.numerators

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._terms) - 1

    @property
    def lowest_power(self) -> int:
        """Index of the lowest nonzero coefficient; -1 for the zero polynomial."""
        return next((i for i, c in enumerate(self._terms) if c), -1)

    @property
    def mode(self) -> str:
        return "float" if self.numerators is None else "exact"

    def __eq__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        if self.numerators is None or other.numerators is None:
            return self.coeffs == other.coeffs
        return self.denominator == other.denominator and self.numerators == other.numerators

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Horner evaluation: exact when both coefficients and x are exact
        (at x = p/q, the integer sum_i c_i p^i q^(deg-i) over den q^deg),
        else in floats on the coefficients rounded once (to_floats), an
        exact polynomial's numerators each divided by its denominator as
        Horner reaches them, so that no float polynomial is built."""
        if self.numerators is None:
            acc, x = 0.0, float(x)
            for c in reversed(self.to_floats()._coeffs):
                acc = acc * x + c
            return acc
        if not isinstance(x, Rational):
            acc, x, den = 0.0, float(x), self.denominator
            for c in reversed(self.numerators):
                acc = acc * x + c / den
            return acc
        p, q = int(x.numerator), int(x.denominator)
        acc, power = 0, 1
        for c in reversed(self.numerators):
            acc = acc * p + c * power
            power *= q
        return Fraction(acc * q, self.denominator * power)

    def __add__(self, other: "DensePoly") -> "DensePoly":
        if self.numerators is None or other.numerators is None:
            den, a, b = None, list(self.coeffs), other.coeffs
        else:
            den = math.lcm(self.denominator, other.denominator)
            a = [c * (den // self.denominator) for c in self.numerators]
            b = [c * (den // other.denominator) for c in other.numerators]
        if len(a) < len(b):
            a, b = list(b), a
        for i, c in enumerate(b):
            a[i] += c
        return DensePoly._from(a, den, self._ints and other._ints)

    def __neg__(self) -> "DensePoly":
        return DensePoly._from([-c for c in self._terms], self.denominator, self._ints, False)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self + (-other)

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        exact = self.numerators is not None and other.numerators is not None
        a, b = (self.numerators, other.numerators) if exact else (self.coeffs, other.coeffs)
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        return DensePoly._from(out, self.denominator * other.denominator if exact else None,
                               self._ints and other._ints)

    def scale(self, factor) -> "DensePoly":
        if not factor:
            return DensePoly.zero()
        if self.numerators is None or not isinstance(factor, Rational):
            return DensePoly(tuple(c * factor for c in self.coeffs))
        return DensePoly._from([c * factor.numerator for c in self.numerators],
                               self.denominator * factor.denominator,
                               self._ints and type(factor) is int)

    def shift_up(self, p: int = 1) -> "DensePoly":
        """Multiply by x**p."""
        return DensePoly._from((0,) * p + self._terms, self.denominator, self._ints, False)

    def shift_down(self, p: int = 1) -> "DensePoly":
        """Divide by x**p; the p lowest coefficients must vanish."""
        if any(self._terms[:p]):
            raise ValueError("polynomial has nonzero low-order terms, not divisible by x")
        return DensePoly._from(self._terms[p:], self.denominator, self._ints, False)

    def derivative(self) -> "DensePoly":
        return DensePoly._from([i * c for i, c in enumerate(self._terms) if i > 0],
                               self.denominator, self._ints)

    def to_floats(self) -> "DensePoly":
        """Each coefficient rounded once to a float: an exact polynomial's
        numerators over its denominator; a float polynomial whose
        coefficients are all floats is itself, as DensePoly is immutable."""
        if self.numerators is None:
            if all(type(c) is float for c in self._coeffs):
                return self
            return DensePoly(tuple(float(c) for c in self._coeffs))
        return DensePoly(tuple(c / self.denominator for c in self.numerators))

    def __repr__(self):
        return f"DensePoly({list(self.coeffs)})"


def _stripped(coeffs) -> list:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _reduced(nums, den: int) -> tuple[list, int]:
    """nums / den in lowest terms with den > 0: one gcd over the vector,
    which stops at the first coefficient that brings it to 1."""
    g = math.gcd(den, *nums) if den else 0      # den 0: ZeroDivisionError below
    g = -g if den < 0 else g
    return (nums, den) if g == 1 else ([c // g for c in nums], den // g)
