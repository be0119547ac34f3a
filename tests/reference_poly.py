"""Reference polynomials for tests.

RefPoly is a dense polynomial with one int, Fraction or float per
coefficient, each operation term by term on those values. This is the
coefficient-tuple form altpoly.poly.DensePoly had before it held exact
coefficients as integers over one denominator; tests/test_poly.py checks the
integer form against it. Coefficients are stored ascending: ``coeffs[i]``
multiplies ``x**i``. Trailing zeros are stripped on construction, so the
trailing coefficient is nonzero unless the polynomial is identically zero
(empty tuple).

jacobi_expansion is the one Fraction expansion of P_m^(a,b)(1-2x) the tests
use as an oracle (tests/test_exact_kernel.py, tests/test_zeros_oracle.py);
it needs the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from altpoly.exact import is_exact


def _binomials(top: Fraction, m: int) -> list[Fraction]:
    """C(top, r) for r = 0..m and rational top."""
    out = [Fraction(1)]
    for r in range(m):
        out.append(out[-1] * (top - r) / (r + 1))
    return out


def jacobi_expansion(m: int, a, b) -> list[Fraction]:
    """The coefficients of x^0..x^m in P_m^(a,b)(1-2x), from the classical sum

        sum_s C(m+a, m-s) C(m+b, s) (-x)^s (1-x)^(m-s)

    with each (1-x)^(m-s) expanded by the binomial theorem. The sum is a
    polynomial identity in a and b, so every rational a and b work, below -1
    too."""
    a, b = Fraction(a), Fraction(b)
    binom_a, binom_b = _binomials(m + a, m), _binomials(m + b, m)
    out = [Fraction(0)] * (m + 1)
    for s in range(m + 1):
        front = (-1) ** s * binom_a[m - s] * binom_b[s]
        for i in range(m - s + 1):
            out[s + i] += front * ((-1) ** i * math.comb(m - s, i))
    return out


def _normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class RefPoly:
    """Polynomial as an ascending coefficient tuple."""

    coeffs: tuple

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    @classmethod
    def zero(cls) -> "RefPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RefPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "RefPoly":
        return cls((0,) * power + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lowest_power(self) -> int:
        """Index of the lowest nonzero coefficient; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    @property
    def mode(self) -> str:
        return "exact" if all(is_exact(c) for c in self.coeffs) else "float"

    def __call__(self, x):
        """Horner evaluation; exact when both coefficients and x are exact."""
        if isinstance(x, float):
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = acc * x + float(c)
            return acc
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RefPoly") -> "RefPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return RefPoly(out)

    def __neg__(self) -> "RefPoly":
        return RefPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        return self + (-other)

    def __mul__(self, other: "RefPoly") -> "RefPoly":
        if self.is_zero or other.is_zero:
            return RefPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def scale(self, factor) -> "RefPoly":
        if not factor:
            return RefPoly.zero()
        return RefPoly(tuple(c * factor for c in self.coeffs))

    def shift_up(self, p: int = 1) -> "RefPoly":
        """Multiply by x**p."""
        if self.is_zero:
            return self
        return RefPoly((0,) * p + self.coeffs)

    def shift_down(self, p: int = 1) -> "RefPoly":
        """Divide by x**p; the p lowest coefficients must vanish."""
        if self.is_zero:
            return self
        if any(self.coeffs[i] for i in range(min(p, len(self.coeffs)))):
            raise ValueError("polynomial has nonzero low-order terms, not divisible by x")
        return RefPoly(self.coeffs[p:])

    def derivative(self) -> "RefPoly":
        return RefPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def to_floats(self) -> "RefPoly":
        return RefPoly(tuple(float(c) for c in self.coeffs))

    def __str__(self):
        return f"RefPoly({list(self.coeffs)})"
