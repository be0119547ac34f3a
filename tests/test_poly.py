import math
import random
from fractions import Fraction

import pytest
from reference_poly import RefPoly

from altpoly.poly import DensePoly


def test_trailing_zeros_stripped():
    assert DensePoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert DensePoly((0, 0)).is_zero


def test_degree_and_lowest_power():
    p = DensePoly((0, 0, 3, -4))
    assert p.degree == 3
    assert p.lowest_power == 2
    assert DensePoly.zero().degree == -1


def test_horner_exact_and_float():
    p = DensePoly((Fraction(3), Fraction(-12), Fraction(10)))
    assert p(Fraction(1)) == 1
    assert p(Fraction(0)) == 3
    assert p(0.5) == pytest.approx(3 - 6 + 2.5)


def test_arithmetic():
    p = DensePoly((1, 2))
    q = DensePoly((0, 1))
    assert (p + q).coeffs == (1, 3)
    assert (p - p).is_zero
    assert (p * q).coeffs == (0, 1, 2)
    assert p.scale(3).coeffs == (3, 6)
    assert p.scale(0).is_zero


def test_shift_up_down():
    p = DensePoly((0, 4, -5))
    assert p.shift_down().coeffs == (4, -5)
    assert p.shift_up(2).coeffs == (0, 0, 0, 4, -5)
    with pytest.raises(ValueError):
        DensePoly((1, 1)).shift_down()


def test_derivative():
    assert DensePoly((3, -12, 10)).derivative().coeffs == (-12, 20)
    assert DensePoly((5,)).derivative().is_zero


def test_mode():
    assert DensePoly((Fraction(1), 2)).mode == "exact"
    assert DensePoly((1.0, 2)).mode == "float"


# ------------------------------------------- against the coefficient-tuple form

def random_coeffs(rng, ints=False):
    """Up to eight small rationals (or ints), some zero, some trailing zeros."""
    out = []
    for _ in range(rng.randint(0, 8)):
        num = rng.choice((0, 0) + tuple(range(-9, 10)))
        out.append(num if ints else Fraction(num, rng.choice((1, 2, 3, 4, 6, 9, 10))))
    return out


def in_lowest_terms(p):
    nums, den = p.numerators, p.denominator
    return (den > 0 and math.gcd(den, *nums) == 1 and (not nums or nums[-1] != 0)
            and all(type(c) is int for c in nums))


def pairs(seed, count=300):
    rng = random.Random(seed)
    for i in range(count):
        a, b = random_coeffs(rng, ints=i % 4 == 0), random_coeffs(rng, ints=i % 3 == 0)
        yield a, b, rng


def test_exact_arithmetic_matches_the_reference():
    for a, b, rng in pairs(20240601):
        p, q, rp, rq = DensePoly(a), DensePoly(b), RefPoly(a), RefPoly(b)
        factor = rng.choice((3, -2, Fraction(5, 6), Fraction(-7, 4), 0))
        shift = rng.randint(0, 3)
        results = [
            (p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq), (-p, -rp),
            (p.scale(factor), rp.scale(factor)), (p.shift_up(shift), rp.shift_up(shift)),
            (p.derivative(), rp.derivative()), (p.shift_up(shift).shift_down(shift), rp),
        ]
        for got, want in [(p, rp), (q, rq)] + results:
            assert got.coeffs == want.coeffs, (a, b)
            assert got.mode == "exact" and in_lowest_terms(got), (a, b)
            assert (got.degree, got.lowest_power) == (want.degree, want.lowest_power)


def test_exact_horner_matches_the_reference():
    xs = (0, 1, -2, Fraction(1, 3), Fraction(-5, 7), Fraction(9, 4))
    for a, _, _ in pairs(7, 120):
        p, rp = DensePoly(a), RefPoly(a)
        for x in xs:
            got = p(x)
            assert type(got) is Fraction and got == rp(x), (a, x)
        for x in (0.0, 0.3, -1.7, 2.5):
            assert p(x).hex() == rp(x).hex(), (a, x)
        assert [c.hex() for c in p.to_floats().coeffs] == [c.hex() for c in rp.to_floats().coeffs]


def test_int_inputs_keep_int_coefficients():
    p, q = DensePoly((1, -2, 3)), DensePoly((0, 4))
    for got in (p + q, p - q, p * q, p.scale(-3), p.derivative(), q.shift_down(), -p):
        assert all(type(c) is int for c in got.coeffs), got
    for got in (p.scale(Fraction(1, 2)), p + DensePoly((Fraction(1, 3),)),
                DensePoly((6,), 3), p.scale(Fraction(2))):
        assert all(type(c) is Fraction for c in got.coeffs), got


def test_integers_over_a_denominator_are_reduced():
    p = DensePoly((6, -4, 0, 10, 0), 8)
    assert (p.numerators, p.denominator) == ((3, -2, 0, 5), 4)
    assert p.coeffs == (Fraction(3, 4), Fraction(-1, 2), 0, Fraction(5, 4))
    q = DensePoly((6, -4), -2)
    assert (q.numerators, q.denominator) == ((-3, 2), 1)
    assert DensePoly((0, 0), 7) == DensePoly.zero() and DensePoly.zero().denominator == 1
    for nums in ((1, 2), ()):
        with pytest.raises(ZeroDivisionError):
            DensePoly(nums, 0)
    assert (DensePoly((Fraction(1, 2), Fraction(1, 3))).numerators,
            DensePoly((Fraction(1, 2), Fraction(1, 3))).denominator) == ((3, 2), 6)


def test_equality_and_hash_across_forms():
    forms = [DensePoly((0.5, 2.0)), DensePoly((Fraction(1, 2), Fraction(2))),
             DensePoly((1, 4), 2)]
    for p in forms:
        for q in forms:
            assert p == q and hash(p) == hash(q)
    assert DensePoly((0.5,)) == DensePoly((Fraction(1, 2),))
    assert DensePoly((1, 2)) == DensePoly((Fraction(1), Fraction(2)))
    assert hash(DensePoly((1, 2))) == hash(DensePoly((Fraction(1), Fraction(2))))
    assert DensePoly((1, 2)) != DensePoly((1, 3)) and DensePoly((1,)) != DensePoly((1, 1))
    assert DensePoly((1,)) != (1,)


def test_float_times_exact_is_a_float_polynomial():
    for a, b, _ in pairs(99, 150):
        fa = [float(c) for c in a]
        p, q, rp, rq = DensePoly(fa), DensePoly(b), RefPoly(fa), RefPoly(b)
        for got, want in ((p * q, rp * rq), (q * p, rq * rp), (p + q, rp + rq),
                          (q - p, rq - rp), (q.scale(0.25), rq.scale(0.25))):
            assert got.coeffs == want.coeffs and all(
                type(g) is type(w) for g, w in zip(got.coeffs, want.coeffs)), (a, b)
            if any(isinstance(c, float) for c in want.coeffs):
                assert got.mode == "float"
        assert p(Fraction(1, 3)) == rp(Fraction(1, 3))


def test_float_coefficients_are_rounded_once_and_only_when_not_floats():
    p = DensePoly((0.5, -1.25, 3.0))
    assert p.to_floats() is p
    mixed = DensePoly((1, Fraction(1, 3), 0.5))
    assert mixed.mode == "float"
    assert [type(c) for c in mixed.to_floats().coeffs] == [float] * 3
    assert mixed.to_floats().coeffs == (1.0, 1 / 3, 0.5)
    for x in (0.0, 0.3, -1.7, 2.5):
        assert mixed(x).hex() == mixed.to_floats()(x).hex()
