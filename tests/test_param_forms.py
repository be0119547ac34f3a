"""Whole exact parameters are held as ints from the entry point on, and every
input form of a parameter gives the same answers (tests/param_forms.py)."""

import math
from fractions import Fraction

import pytest

import param_forms
from altpoly import quad, zfun
from altpoly.errors import DivergenceError, RootFindingError
from altpoly.exact import exact_param
from altpoly.exppoly import ExpPolySystem, e_eval, e_zeros, project
from altpoly.poly import DensePoly
from altpoly.polycore import PolyParams


@pytest.mark.parametrize("pair", param_forms.INT_PAIRS + param_forms.HALF_PAIRS
                         + param_forms.MARGINAL_PAIRS,
                         ids=lambda pair: f"{pair[0]},{pair[1]}")
def test_every_form_of_a_parameter_gives_the_same_exact_answers(pair):
    bad, loose = param_forms.sweep([pair])
    assert bad == []
    assert loose == []


def test_whole_parameters_are_held_as_ints():
    for v in (2, Fraction(2), Fraction(4, 2), "2", "4/2"):
        p = PolyParams(v, v, 3, 1)
        assert (type(p.alpha), type(p.beta)) == (int, int)
        assert (p.alpha, p.beta) == (2, 2)
    p = PolyParams(Fraction(1, 2), "-1/3", 3, 1)
    assert (type(p.alpha), type(p.beta)) == (Fraction, Fraction)
    assert (p.alpha, p.beta) == (Fraction(1, 2), Fraction(-1, 3))
    p = PolyParams(2.0, 0.5, 3, 1)
    assert (type(p.alpha), type(p.beta)) == (float, float)


def test_a_numpy_float_exponent_stays_on_the_float_line():
    import numpy as np

    a = np.float32(0.5)
    assert type(exact_param(a)) is np.float32
    assert quad.beta_moment(a, 0) == quad.beta_moment(0.5, 0)
    assert quad.gauss_jacobi_rule(3, a, a) == quad.gauss_jacobi_rule(3, 0.5, 0.5)


def test_a_system_holds_its_exponents_normalized_for_the_float_layer():
    # the string "1/2" reaches e_eval and project as Fraction(1, 2) does
    given, want = ExpPolySystem("1/2", 0, 3), ExpPolySystem(Fraction(1, 2), 0, 3)
    assert (type(given.alpha), given.alpha, type(given.beta)) == (Fraction, Fraction(1, 2), int)
    assert [e_eval(given, k, 0.7) for k in range(5)] == [e_eval(want, k, 0.7) for k in range(5)]
    target = lambda t: math.exp(-2 * t)
    assert project(target, given) == project(target, want)


def test_the_float_rule_layer_reads_p_over_q_exponents():
    # check_jacobi_weight normalizes by exact.exact_param, so "1/2" is
    # Fraction(1, 2) for the nodes, the Beta moment and the descriptors
    assert e_zeros("1/2", "3/2", 3) == e_zeros(Fraction(1, 2), Fraction(3, 2), 3)
    assert quad.gauss_jacobi_rule(3, "1/2", 0) == quad.gauss_jacobi_rule(3, Fraction(1, 2), 0)
    assert quad.gauss_jacobi_rule(3, "4/2", "-1/2") == quad.gauss_jacobi_rule(3, 2, Fraction(-1, 2))
    # a float nan or inf passes exact_param as it is and keeps its refusal
    for call in (lambda a: e_zeros(a, 0, 3), lambda a: quad.gauss_jacobi_rule(3, a, 0)):
        with pytest.raises(DivergenceError, match=r"a = nan, b = 0, m = 3\)"):
            call(math.nan)
        with pytest.raises(RootFindingError, match="a = inf, b = 0, m = 3 leaves"):
            call(math.inf)


def test_the_z_builders_read_omega_as_p_over_q():
    # omega is read once by exact.finite_param, for the search, the spec's
    # omega and beta_n alike
    cands = zfun.whole_candidates(64)
    given, want = zfun.z_build(2, "1/2", cands), zfun.z_build(2, Fraction(1, 2), cands)
    assert given == want and type(given.omega) is Fraction and given.beta_n == want.beta_n
    assert zfun.z_build_real(2, "1/2") == zfun.z_build_real(2, Fraction(1, 2))
    whole = zfun.z_build(2, "2/2", cands)
    assert whole == zfun.z_build(2, 1, cands) and type(whole.omega) is int


def test_semi_axis_integrals_read_p_over_q_exponents():
    # a callable integrand and a DensePoly one, which stays exact, alike
    for g in (lambda t: math.exp(-t), DensePoly((0, 1, Fraction(-1, 3)))):
        given = quad.integrate_semi_axis(g, "3/2", "0")
        want = quad.integrate_semi_axis(g, Fraction(3, 2), Fraction(0))
        assert (type(given), given) == (type(want), want)
    assert quad.integrate_semi_axis(math.exp, "5/2", "1/2", 12) == \
        quad.integrate_semi_axis(math.exp, 2.5, 0.5, 12)
