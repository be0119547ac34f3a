"""Reference Gamma ratios for tests: Gamma(a) Gamma(b) / Gamma(c) built by a
chain of gcd-reduced Fraction operations.

This is the form altpoly.exact.exact_gamma2_ratio had before it computed on
the doubled integer arguments 2a, 2b and 2c with one Fraction at the end;
tests/test_exact.py checks the integer form against it. It needs neither
numpy nor pytest, so a bare interpreter can run the sweep:

    PYTHONPATH=src:tests python -c "import reference_gamma; reference_gamma.check()"
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from altpoly.exact import EXACT_FACTOR_CAP, ExactnessError, PiRational, exact_gamma2_ratio


def _half_gamma_over_sqrt_pi(p: int) -> Fraction:
    """Gamma(p + 1/2) / sqrt(pi) = (2p)! / (4^p p!) for whole p >= 0."""
    if p < 0:
        raise ExactnessError("gamma at half-integers <= -1/2 not handled")
    return Fraction(math.factorial(2 * p), 4 ** p * math.factorial(p))


def _den(v: Fraction) -> int:
    return Fraction(v).denominator


def gamma_quotient(x, y) -> Fraction:
    """Gamma(x)/Gamma(y) for x - y a whole number: prod_{i<m} (p + i q) / q^m
    with s = p/q the smaller argument, or its reciprocal."""
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise ExactnessError("gamma_quotient needs positive arguments")
    diff = x - y
    if diff.denominator != 1:
        raise ExactnessError("gamma_quotient needs integer argument difference")
    m = int(diff)
    low = y if m >= 0 else x
    p, q = low.numerator, low.denominator
    prod = 1
    for i in range(abs(m)):
        prod *= p + i * q
    power = q ** abs(m)
    return Fraction(prod, power) if m >= 0 else Fraction(power, prod)


def gamma2_ratio(a, b, c):
    """Gamma(a) Gamma(b) / Gamma(c) as Fraction or PiRational: whole pair, the
    factorial of the smaller and the larger paired with c; one whole, its
    factorial and the half-odd paired with c; both half-odd, pi times a
    rational."""
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
        return math.factorial(int(a) - 1) * gamma_quotient(b, c)
    if _den(b) == 1:
        return math.factorial(int(b) - 1) * gamma_quotient(a, c)
    p = int(a - Fraction(1, 2))
    q = int(b - Fraction(1, 2))
    rat = _half_gamma_over_sqrt_pi(p) * _half_gamma_over_sqrt_pi(q) / math.factorial(int(c) - 1)
    return PiRational(0, rat)


def _outcome(fn, args):
    """(type, value) of the result, or (exception type, message)."""
    try:
        got = fn(*args)
    except (ValueError, TypeError, OverflowError) as exc:   # ExactnessError is a ValueError
        return type(exc), str(exc)
    return type(got), got


# arguments beyond the doubled-integer grid: the one-factor huge whole
# pairs, and inputs that reach Fraction() itself
EXTRA_CASES = [
    (10 ** 8 + 1, 1, 10 ** 8 + 2),
    (1, 10 ** 8 + 1, 10 ** 8 + 2),
    (10 ** 8 + 2, 1, 10 ** 8 + 1),
    (10 ** 306 + 1, 1, 10 ** 306 + 2),
    (1, Fraction(2 * 10 ** 8 + 1, 2), Fraction(2 * 10 ** 8 + 3, 2)),
    (Fraction(2 * 10 ** 8 + 3, 2), 1, Fraction(2 * 10 ** 8 + 1, 2)),
    (0.5, 0.5, 1.0),
    (2.5, 3, 5.5),
    (0.25, 1, 1.25),
    ("3/2", 1, "5/2"),
    ("7/2", "1/2", 4),
    (True, 1, 2),
    (Fraction(3), Fraction(2), Fraction(4)),
    (Fraction(5, 2), Fraction(2), Fraction(9, 2)),
    (Fraction(1, 3), 1, Fraction(4, 3)),
    (Fraction(16, 3), Fraction(7, 3), Fraction(23, 3)),
    (1, 2, Fraction(5, 2)),
    (-1, 2, 1),
    (float("nan"), 1, 2),
    (1, float("inf"), 2),
    ("x", 1, 2),
    (None, 1, 2),
]


def sweep_cases():
    """Every triple (a, b, c) with 2a, 2b and 2c in -2..40, whole values as
    ints, then EXTRA_CASES."""
    halves = [h // 2 if h % 2 == 0 else Fraction(h, 2) for h in range(-2, 41)]
    yield from product(halves, repeat=3)
    yield from EXTRA_CASES


def mismatches(fn=exact_gamma2_ratio):
    """The cases where fn and the reference differ in value, result type,
    exception type or message."""
    return [(args, want, got) for args in sweep_cases()
            if (want := _outcome(gamma2_ratio, args)) != (got := _outcome(fn, args))]


def check():
    """Plain-assert sweep of exact_gamma2_ratio against the reference."""
    assert EXACT_FACTOR_CAP > 100, "the grid must lie under the factor cap"
    bad = mismatches()
    assert not bad, f"{len(bad)} mismatches, first: {bad[0]}"
    print(f"reference_gamma: {sum(1 for _ in sweep_cases())} cases match")
