"""The exact downward recurrences on polycore's integer step kernel.

ajp_recurrence, and with it a_recurrence (the family at alpha = -1,
beta = 0), and t_recurrence all step through polycore._downward_recurrence.
The oracles here do not: the exact ajp members come from the earlier route
that evaluates each step's factors in Fraction arithmetic (copied below),
the A and T members from their closed-form expansions, and the A step's
factors from the paper's formula.
"""

import math
from fractions import Fraction as F

import pytest

from altpoly import marginal, polycore
from altpoly.errors import CoefficientOverflowError, RecurrenceError
from altpoly.exact import over_common_denominator
from altpoly.marginal import a_coefficients, a_recurrence, t_coefficients, t_recurrence
from altpoly.poly import DensePoly
from altpoly.polycore import PolyParams, ajp_coefficients, ajp_recurrence

PARAMS = [(F(3), F(2)), (F(5, 2), F(1, 2)), (F(1, 3), F(-2, 3)), (F(-1), F(0)),
          (F(-3, 2), F(-1, 2))]
SIZES = (0, 1, 2, 5, 16, 40, 60)


# ------------------------------------------------ the Fraction-step oracle

def _fraction_factors(a, b, n, k):
    """x member(k-1) denom = c3 (c1 member(k) - c2 x member(k)) - c4 x member(k+1)."""
    return ((a + 2 * k) * (a + 2 * k + 2),
            (a + 2 * n + 2) * (a + b + 2 * k + 1) + 2 * (n - k) * (n - k + 1),
            a + 2 * k + 1,
            (a + b + n + k + 2) * (b + n - k) * (a + 2 * k),
            (n - k + 1) * (a + n + k + 1) * (a + 2 * k + 2))


def _primitive(scale, vec):
    g = math.gcd(*vec)
    if g == 0:
        return F(0), vec
    if g == 1:
        return scale, vec
    return scale * g, [v // g for v in vec]


def fraction_step_recurrence(a, b, n, up_to_k):
    """Members k = n..up_to_k, each step's multipliers formed in Fractions."""
    members = [(F(1), [0] * n + [1])]
    if up_to_k < n:
        lead, den = over_common_denominator((a + 2 * n, -(a + b + 2 * n + 1)))
        members.append(_primitive(F(1, den), [0] * (n - 1) + lead))
    for k in range(n - 1, up_to_k, -1):
        (s_cur, cur), (s_prev, prev) = members[-1], members[-2]
        assert not cur[0]
        c1, c2, c3, c4, denom = _fraction_factors(a, b, n, k)
        (m1, m2, m3), den = over_common_denominator(
            (s_cur * c3 * c1 / denom, -s_cur * c3 * c2 / denom, -s_prev * c4 / denom))
        vec = [m1 * x + m2 * y + m3 * z for x, y, z in zip(cur[1:] + [0], cur, prev)]
        members.append(_primitive(F(1, den), vec))
    return [DensePoly([s * v for v in vec]) for s, vec in members]


# ------------------------------------------------------------------- ajp

@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("a,b", PARAMS)
def test_exact_recurrence_matches_fraction_step_route(a, b, n):
    for up_to_k in sorted({0, 1, n // 2, n} & set(range(n + 1))):
        got = ajp_recurrence(a, b, n, up_to_k)
        assert got == fraction_step_recurrence(a, b, n, up_to_k), (a, b, n, up_to_k)
        assert len(got) == n - up_to_k + 1
        assert all(type(c) is F for p in got for c in p.coeffs), (a, b, n, up_to_k)


def test_float_recurrence_n100_is_the_rounded_member():
    # each member is the exact one at the binary parameters rounded once, as
    # float ajp_coefficients builds it: equal bit for bit
    n = 100
    for a, b in ((0.5, 0.5), (1.5, 0.7), (0.1, 2.3), (-0.5, -0.5), (1.234, 0.567), (3.7, 2.1)):
        seq = ajp_recurrence(a, b, n)
        assert len(seq) == n + 1
        for k, got in zip(range(n, -1, -1), seq):
            want = ajp_coefficients(PolyParams(a, b, n, k)).coeffs
            assert [c.hex() for c in got.coeffs] == [c.hex() for c in want], (a, b, k)


def test_float_recurrence_overflow_is_refused():
    # the k = 0 member at (1.5, 0.5) leaves the double range from n = 406
    assert ajp_recurrence(1.5, 0.5, 405)[-1] == ajp_coefficients(PolyParams(1.5, 0.5, 405, 0))
    with pytest.raises(CoefficientOverflowError, match="n=406, k=0.*alpha = 1.5, beta = 0.5"):
        ajp_recurrence(1.5, 0.5, 406)


# ----------------------------------------------------------------- A and T

@pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 20, 29, 40])
def test_a_and_t_recurrences_match_expansions_to_n40(n):
    a_seq, t_seq = a_recurrence(n), t_recurrence(n)
    assert len(a_seq) == len(t_seq) == n + 1
    for k, a_got, t_got in zip(range(n, -1, -1), a_seq, t_seq):
        assert a_got == a_coefficients(n, k), (n, k)
        assert t_got == t_coefficients(n, k), (n, k)
        assert all(type(c) is F for c in a_got.coeffs + t_got.coeffs)


def a_step(n: int, k: int):
    """The paper's integer factors (m1, m2, m3, den) of the A-kind step
    member(k) -> member(k-1): den member(k-1) = m1 member(k)/x - m2 member(k)
    - m3 member(k+1)."""
    return (2 * k * (2 * k - 1) * (2 * k + 1), 4 * k * (n * n + k * k + n),
            (2 * k - 1) * (n - k) * (n + k + 1), (2 * k + 1) * (n + k) * (n - k + 1))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
def test_a_recurrence_is_the_family_recurrence_at_minus_one_zero(n):
    # a_recurrence runs ajp_recurrence(-1, 0, n), whose integer factors are
    # the A step's term by term
    for k in range(1, n):
        factors = polycore._recurrence_factors(-1, 0, 1, n, k)
        assert factors == a_step(n, k), (n, k)
        assert all(type(f) is int for f in factors)
    with pytest.raises(ValueError):
        a_recurrence(0)


# ------------------------------------------------------- spoiled factors

def _zero_den_at(factors, bad_k):
    def spoiled(*args):
        m1, m2, m3, den = factors(*args)
        return (m1, m2, m3, 0 if args[-1] == bad_k else den)
    return spoiled


@pytest.mark.parametrize("route", ["ajp", "ajp-float", "A", "T"])
def test_spoiled_factor_raises_recurrence_error(monkeypatch, route):
    n, bad_k = 6, 3
    if route == "T":
        monkeypatch.setattr(marginal, "_t_step", _zero_den_at(marginal._t_step, bad_k))
        with pytest.raises(RecurrenceError, match=f"T member k={bad_k - 1}"):
            t_recurrence(n)
        return
    monkeypatch.setattr(polycore, "_recurrence_factors",
                        _zero_den_at(polycore._recurrence_factors, bad_k))
    if route == "A":
        with pytest.raises(RecurrenceError, match=f"member k={bad_k - 1} divides by zero"):
            a_recurrence(n)
        return
    a, b = (F(1, 2), F(2)) if route == "ajp" else (0.5, 2.0)
    ajp_recurrence(a, b, n, up_to_k=bad_k)          # the spoiled step is not reached
    with pytest.raises(RecurrenceError, match=f"k={bad_k - 1} divides by zero"):
        ajp_recurrence(a, b, n)


def test_zero_step_denominator_is_typed():
    # alpha = -4: the step k = 1 -> 0 has alpha + 2k + 2 = 0
    for a, b in ((F(-4), F(0)), (-4.0, 0.0)):
        with pytest.raises(RecurrenceError, match="k=0 divides by zero"):
            ajp_recurrence(a, b, 3)


@pytest.mark.parametrize("label", ["member", "A member", "T member"])
def test_nonzero_constant_term_raises_recurrence_error(label):
    # every step keeps the lowest power of member k at k or above, so only a
    # start member with a constant term reaches the check
    n = 4
    first = ([1] + [0] * (n - 2) + [2 * n - 1, -2 * n], 1)
    with pytest.raises(RecurrenceError, match=f"{label} k={n - 1} has a nonzero constant"):
        polycore._downward_recurrence(n, first, lambda k: a_step(n, k), label=label)
