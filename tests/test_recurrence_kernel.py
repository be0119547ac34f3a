"""The exact downward recurrences on polycore's integer step kernel.

The exact ajp_recurrence, and with it a_recurrence (the family at
alpha = -1, beta = 0), and t_recurrence (the family's step factors at
(-3/2, -1/2), rescaled to the T members) all step through
polycore._downward_recurrence; the float ajp_recurrence returns the float
ajp_coefficients members.
The oracles here do not: the exact ajp members come from the earlier route
that evaluates each step's factors in Fraction arithmetic (copied below),
the A and T members from the hypergeometric kernel (ajp_coefficients), and
the A and T steps' factors from the paper's formulas.
Every marginal name is one kernel call at its family's point: spoiling a
kernel function changes the answer of each name that calls it.
"""

import math
import sys
from fractions import Fraction as F

import pytest

import altpoly
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


def fraction_step_recurrence(a, b, n):
    """Members k = n..0, each step's multipliers formed in Fractions."""
    members = [(F(1), [0] * n + [1])]
    if n:
        lead, den = over_common_denominator((a + 2 * n, -(a + b + 2 * n + 1)))
        members.append(_primitive(F(1, den), [0] * (n - 1) + lead))
    for k in range(n - 1, 0, -1):
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
    got = ajp_recurrence(a, b, n)
    assert got == fraction_step_recurrence(a, b, n), (a, b, n)
    assert len(got) == n + 1
    assert all(type(c) is F for p in got for c in p.coeffs), (a, b, n)


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


@pytest.mark.parametrize("a,b", [(F(1, 2), F(-3, 2)), (F(1), F(-3))])
def test_recurrence_answers_below_beta_minus_one_in_both_modes(a, b):
    # PolyParams refuses beta <= -1 and ajp_recurrence does not, so neither
    # mode may build its members through PolyParams
    with pytest.raises(ValueError, match="beta must exceed -1"):
        PolyParams(float(a), float(b), 2, 0)
    for n in range(7):
        exact = ajp_recurrence(a, b, n)
        assert exact == fraction_step_recurrence(a, b, n), (a, b, n)
        # the float members: the exact ones at the binary parameters, rounded once
        got = ajp_recurrence(float(a), float(b), n)
        assert [[c.hex() for c in p.coeffs] for p in got] == \
            [[float(c).hex() for c in p.coeffs] for p in exact], (a, b, n)


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


def t_step(n: int, k: int):
    """The paper's integer factors (m1, m2, m3, den) of the T-kind step, as
    a_step."""
    return ((4 * k - 1) * (4 * k - 3) * (4 * k + 1),
            2 * (4 * k - 1) * (4 * n * n + 4 * k * k - 2 * k - 1),
            4 * (n - k) * (n + k) * (4 * k - 3),
            (2 * (n + k) - 1) * (2 * (n - k) + 1) * (4 * k + 1))


@pytest.mark.parametrize("n", range(2, 41))
def test_t_factors_are_the_papers_step(n):
    # t_recurrence's factors, the family's at (-3/2, -1/2) rescaled by the
    # t_scaling ratios, are the paper's T step term by term
    for k in range(1, n):
        assert marginal._t_factors(n, k) == t_step(n, k), (n, k)


# ------------------------------------------------------- spoiled factors

def spoil(monkeypatch, fn, replacement):
    """Replace fn at every altpoly module attribute that holds it, so a
    sibling that imported it by name calls the replacement too."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "altpoly" and module is not None:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def _zero_den_at(factors, bad_k):
    def spoiled(*args):
        m1, m2, m3, den = factors(*args)
        return (m1, m2, m3, 0 if args[-1] == bad_k else den)
    return spoiled


@pytest.mark.parametrize("route", ["ajp", "ajp-float", "A", "T"])
def test_spoiled_factor_raises_recurrence_error(monkeypatch, route):
    n, bad_k = 6, 3
    unspoiled = ajp_recurrence(0.5, 2.0, n)
    spoil(monkeypatch, polycore._recurrence_factors,
          _zero_den_at(polycore._recurrence_factors, bad_k))
    if route == "T":
        with pytest.raises(RecurrenceError, match=f"the step to T member k={bad_k - 1} divides"):
            t_recurrence(n)
        return
    if route == "A":
        with pytest.raises(RecurrenceError, match=f"member k={bad_k - 1} divides by zero"):
            a_recurrence(n)
        return
    if route == "ajp-float":
        # float members come from the kernel and take no step
        got = ajp_recurrence(0.5, 2.0, n)
        assert [[c.hex() for c in p.coeffs] for p in got] == \
            [[c.hex() for c in p.coeffs] for p in unspoiled]
        return
    a, b = F(1, 2), F(2)
    with pytest.raises(RecurrenceError, match=f"k={bad_k - 1} divides by zero"):
        ajp_recurrence(a, b, n)


def test_zero_step_denominator_is_typed():
    # alpha = -4: the step k = 1 -> 0 has alpha + 2k + 2 = 0
    with pytest.raises(RecurrenceError, match="k=0 divides by zero"):
        ajp_recurrence(F(-4), F(0), 3)
    # float parameters take no step: each member is the exact one at -4,
    # rounded once
    got = ajp_recurrence(-4.0, 0.0, 3)
    assert len(got) == 4
    for k, p in zip(range(3, -1, -1), got):
        want = ajp_coefficients(PolyParams(F(-4), F(0), 3, k)).to_floats()
        assert [c.hex() for c in p.coeffs] == [c.hex() for c in want.coeffs], k


@pytest.mark.parametrize("label", ["member", "A member", "T member"])
def test_nonzero_constant_term_raises_recurrence_error(label):
    # every step keeps the lowest power of member k at k or above, so only a
    # start member with a constant term reaches the check
    n = 4
    first = ([1] + [0] * (n - 2) + [2 * n - 1, -2 * n], 1)
    with pytest.raises(RecurrenceError, match=f"{label} k={n - 1} has a nonzero constant"):
        polycore._downward_recurrence(n, first, lambda k: a_step(n, k), label=label)


KERNEL, FACTORS = polycore._jacobi_kernel, polycore._recurrence_factors


def _doubled_result(fn):
    def spoiled(*args):
        return 2 * fn(*args)
    return spoiled


def _halved_kernel(m, a, b):
    nums, den = KERNEL(m, a, b)
    return nums, 2 * den


def _doubled_den(*args):
    m1, m2, m3, den = FACTORS(*args)
    return m1, m2, m3, 2 * den


# each kernel function, its spoiled form, and the marginal calls that must
# answer differently once it is spoiled; the norm and integral kernels are
# the ones behind ajp_norm_h and ajp_single_integral, which the marginal
# names call with the T scale folded into their integers
A_MEMBER = PolyParams(-1, 0, 6, 3)
KERNEL_CALLS = [
    (polycore._norm_h, _doubled_result(polycore._norm_h),
     [(marginal.a_norm, (6, 3, 3)), (marginal.t_norm, (6, 3, 3)),
      (polycore.ajp_norm_h, (A_MEMBER,))]),
    (polycore._single_integral, _doubled_result(polycore._single_integral),
     [(marginal.a_single_integral, (6, 3)), (marginal.t_single_integral, (6, 3)),
      (polycore.ajp_single_integral, (A_MEMBER,))]),
    (KERNEL, _halved_kernel,
     [(marginal.a_coefficients, (6, 3)), (marginal.t_coefficients, (6, 3))]),
    (FACTORS, _doubled_den, [(marginal.a_recurrence, (6,)), (marginal.t_recurrence, (6,))]),
]


def test_every_marginal_name_answers_through_its_kernel_call(monkeypatch):
    # a marginal name that computed its object a second way would keep its
    # answer with the kernel spoiled
    assert {call.__name__ for _, _, calls in KERNEL_CALLS for call, _ in calls
            if call.__module__ == marginal.__name__} == \
        set(altpoly._EXPORTS["marginal"]) - {"MarginalKind", "is_normalizable"}
    for fn, spoiled, calls in KERNEL_CALLS:
        before = [call(*args) for call, args in calls]
        with monkeypatch.context() as patch:
            spoil(patch, fn, spoiled)
            after = [call(*args) for call, args in calls]
        for (call, args), old, new in zip(calls, before, after):
            assert new != old, (fn.__name__, call.__name__, args)
