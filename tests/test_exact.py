import math
import re
from fractions import Fraction

import pytest

import reference_gamma
from altpoly import exact
from altpoly.errors import ValueRangeError
from altpoly.exact import (
    EXACT_FACTOR_CAP,
    ExactnessError,
    PiRational,
    double_factorial,
    exact_gamma2_ratio,
    falling_factorial,
    gamma2_ratio,
)


def test_falling_factorial_values():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(Fraction(7, 3), 0) == 1
    assert falling_factorial(Fraction(1, 2), 1) == Fraction(1, 2)
    # falling, not rising: (3)_2 = 3*2, not 3*4
    assert falling_factorial(3, 2) == 6
    assert falling_factorial(Fraction(-3), 1) == -3


def test_falling_factorial_float_passthrough():
    assert falling_factorial(0.5, 2) == pytest.approx(0.5 * -0.5)


def test_falling_factorial_rejects_negative_count():
    with pytest.raises(ValueError):
        falling_factorial(2, -1)


def test_double_factorial_values():
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    assert double_factorial(1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(-1) == 1


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_gamma_quotient_products():
    # Gamma(5)/Gamma(3) = 4*3
    assert reference_gamma.gamma_quotient(5, 3) == 12
    assert reference_gamma.gamma_quotient(3, 5) == Fraction(1, 12)
    assert reference_gamma.gamma_quotient(Fraction(7, 2), Fraction(3, 2)) == Fraction(15, 4)


def test_exact_gamma2_ratio_whole():
    # Gamma(3)Gamma(2)/Gamma(4) = 2*1/6
    assert exact_gamma2_ratio(3, 2, 4) == Fraction(1, 3)


def test_exact_gamma2_ratio_whole_pair_matches_factorial_of_first():
    # reference: the factorial of the first argument, the second paired with c
    for a in range(1, 9):
        for b in range(1, 9):
            for c in range(1, a + b + 6):
                got = exact_gamma2_ratio(a, b, c)
                want = math.factorial(a - 1) * reference_gamma.gamma_quotient(b, c)
                assert got == want and type(got) is type(want) is Fraction
    assert exact_gamma2_ratio(10 ** 8 + 1, 1, 10 ** 8 + 2) == Fraction(1, 10 ** 8 + 1)


def test_exact_gamma2_ratio_half_pair_gives_pi():
    v = exact_gamma2_ratio(Fraction(1, 2), Fraction(1, 2), 1)
    assert v == PiRational(0, 1)
    assert float(v) == pytest.approx(math.pi)


def test_exact_gamma2_ratio_mixed_is_rational():
    # Gamma(1/2)Gamma(1)/Gamma(3/2) = 2
    assert exact_gamma2_ratio(Fraction(1, 2), 1, Fraction(3, 2)) == 2


def test_exact_gamma2_ratio_rejects_thirds():
    with pytest.raises(ExactnessError):
        exact_gamma2_ratio(Fraction(1, 3), 1, Fraction(4, 3))


def test_exact_gamma2_ratio_matches_the_fraction_chain_reference():
    # every triple with 2a, 2b, 2c in -2..40 (all under the factor cap), the
    # one-factor huge pairs, and inputs only Fraction() accepts or rejects:
    # equal values and result types, equal exceptions and messages
    assert reference_gamma.mismatches() == []


def test_one_factor_cases_stay_exact_far_past_the_cap():
    assert exact_gamma2_ratio(10 ** 8 + 1, 1, 10 ** 8 + 2) == Fraction(1, 10 ** 8 + 1)
    assert exact_gamma2_ratio(1, Fraction(2 * 10 ** 8 + 1, 2), Fraction(2 * 10 ** 8 + 3, 2)) \
        == Fraction(2, 2 * 10 ** 8 + 1)
    # beta_moment(10**306, 0): the CLI's --alpha 1e306 --beta 0 is this integer
    got = gamma2_ratio(10 ** 306 + 1, 1, 10 ** 306 + 2)
    assert got == Fraction(1, 10 ** 306 + 1) and type(got) is Fraction


# one shape per pairing rule, needing f factors: the factorial of the
# smaller whole argument; a whole argument's factorial and a half-odd one
# paired with c; two half-odd arguments over c!
CAP_SHAPES = {
    "whole-pair": lambda f: (f + 1, f + 1, f + 1),
    "mixed": lambda f: (f // 2 + 1, Fraction(1, 2), Fraction(1, 2) + f - f // 2),
    "half-pair": lambda f: (Fraction(1, 2), Fraction(1, 2), f + 1),
}


@pytest.mark.parametrize("shape", CAP_SHAPES)
def test_factor_cap_ends_the_exact_route(shape):
    args = CAP_SHAPES[shape]
    got = exact_gamma2_ratio(*args(EXACT_FACTOR_CAP))
    want = reference_gamma.gamma2_ratio(*args(EXACT_FACTOR_CAP))
    assert got == want and type(got) is type(want)
    with pytest.raises(ExactnessError, match=f"needs {EXACT_FACTOR_CAP + 1} factors"):
        exact_gamma2_ratio(*args(EXACT_FACTOR_CAP + 1))


def test_past_the_cap_gamma2_ratio_is_the_float_line_within_the_stated_error():
    # beta_moment(a, 1/2) = Gamma(a + 1) Gamma(3/2) / Gamma(a + 5/2) needs
    # 2a + 1 factors: exact to a = 9999, then the float line, within the
    # 1.1e-11 the docstring states at a = 10**4
    under = gamma2_ratio(10 ** 4, Fraction(3, 2), Fraction(2 * 10 ** 4 + 3, 2))
    assert type(under) is Fraction
    args = (10 ** 4 + 1, Fraction(3, 2), Fraction(2 * 10 ** 4 + 5, 2))
    past = gamma2_ratio(*args)
    assert type(past) is float
    want = reference_gamma.gamma2_ratio(*args)
    assert abs(Fraction(past) - want) / want < 1.1e-11


def lgamma_line(a, b, c):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(c))


@pytest.mark.parametrize("args,want", [
    ((3, 2, 4), Fraction(1, 3)),
    ((Fraction(1, 2), Fraction(3, 2), 2), PiRational(0, Fraction(1, 2))),
    # one half-odd argument: Gamma(1/2)Gamma(1)/Gamma(3/2), no pi part
    ((Fraction(1, 2), 1, Fraction(3, 2)), Fraction(2)),
    # thirds have no exact form: the float line on the exact arguments,
    # each rounded once (16/3 is the correctly rounded float of 16/3)
    ((Fraction(16, 3), Fraction(7, 3), Fraction(23, 3)), lgamma_line(16 / 3, 7 / 3, 23 / 3)),
    # floats stay floats, even at values with an exact form
    ((0.5, 0.5, 1.0), lgamma_line(0.5, 0.5, 1.0)),
    ((2.75, 1.25, 4.0), lgamma_line(2.75, 1.25, 4.0)),
], ids=["whole", "half-odd-pair", "half-and-whole", "thirds", "float-halves", "floats"])
def test_gamma2_ratio_exact_form_or_the_float_line(args, want):
    got = gamma2_ratio(*args)
    assert got == want and type(got) is type(want)


def test_gamma2_ratio_simplifies_a_zero_pi_part(monkeypatch):
    # called through the module global, the name perfbench's tracer patches
    monkeypatch.setattr(exact, "exact_gamma2_ratio", lambda a, b, c: PiRational(3, 0))
    got = gamma2_ratio(1, 2, 3)
    assert got == 3 and type(got) is Fraction


@pytest.mark.parametrize("args,names", [
    ((179.0, 176.0, 180.0), "Gamma(179.0) Gamma(176.0) / Gamma(180.0)"),
    # an exact argument without exact form that does not fit a float
    ((Fraction(3 * 10 ** 400 + 1, 3), 1, Fraction(3 * 10 ** 400 + 4, 3)),
     f"Gamma({3 * 10 ** 400 + 1}/3) Gamma(1)"),
])
def test_gamma2_ratio_outside_the_double_range_is_a_typed_refusal(args, names):
    with pytest.raises(ValueRangeError, match=re.escape(names)) as info:
        gamma2_ratio(*args)
    assert isinstance(info.value, OverflowError)


def test_pi_rational_arithmetic():
    a = PiRational(Fraction(1, 2), Fraction(1, 3))
    b = PiRational(Fraction(1, 2), Fraction(-1, 3))
    assert a + b == 1
    assert (a - a) == 0
    assert a * 3 == PiRational(Fraction(3, 2), 1)
    assert a / 2 == PiRational(Fraction(1, 4), Fraction(1, 6))
    assert float(PiRational(0, Fraction(1, 2))) == pytest.approx(math.pi / 2)
    assert str(PiRational(0, Fraction(1, 2))) == "1/2*pi"
    with pytest.raises(ZeroDivisionError):
        PiRational(0, 0) / 0


def test_a_pi_rational_with_no_pi_part_hashes_as_the_rational_it_equals():
    from altpoly import marginal

    for rat in (0, 3, Fraction(-7, 2), Fraction(10 ** 30, 3)):
        assert PiRational(rat, 0) == rat and hash(PiRational(rat, 0)) == hash(rat)
    assert len({PiRational(Fraction(3), 0), Fraction(3), 3}) == 1
    # an off-diagonal T inner product is PiRational(0, 0), equal to 0
    assert {0: "x"}.get(marginal.t_norm(3, 1, 2)) == "x"
    # a pi part keeps the value apart from every rational
    assert len({PiRational(3, 1), PiRational(3, 0), PiRational(3, 2)}) == 3
