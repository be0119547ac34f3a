"""Scaled exponential systems and the discretely-almost-orthogonal Z systems
on [0,1].

The construction fixes a weight-shape ratio omega (second exponent = omega
times the first), then picks the first exponent from a candidate set so the
largest zero gamma of the associated function is maximal subject to
gamma <= 1. With gamma = 1 the members are used as-is (Z); with gamma < 1
the argument is rescaled by gamma (Z-tilde), which parks the largest zero of
the associated function exactly at t = 1 either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CollocationError, FeasibilityError
from .exppoly import (
    ExpPolySystem,
    ZeroSet,
    e_eval,
    e_zeros,
    guarded_zero_set,
    member_values,
    semi_axis_point,
)
from .exact import finite_param, is_exact, whole_index
from .quad import check_jacobi_weight, golub_welsch, jacobi_entries

GAMMA_UNSCALED_TOL = 1e-12


def lambda_max(alpha, beta, n: int) -> float:
    """Largest zero of the associated function for the given exponents."""
    return e_zeros(alpha, beta, n).max_lambda()


def etilde_eval(alpha, beta, n: int, k: int, t) -> float:
    """Scaled member: the exponential member evaluated at lambda_max * t,
    so the largest zero of the scaled associated function sits at t = 1;
    ValueError naming t for t < 0, before any eigen-solve."""
    t = semi_axis_point(t)
    lam = lambda_max(alpha, beta, n)
    return float(e_eval(ExpPolySystem(alpha, beta, n), k, lam * t))


def weight_peak(omega) -> float:
    """Abscissa of the semi-axis weight maximum: ln(1+omega) for omega > 0,
    else the boundary t = 0, for a finite omega (exact.finite_param)."""
    omega = finite_param("omega", omega)
    if omega <= 0:
        return 0.0
    return math.log1p(float(omega))


def whole_candidates(limit: int = 64) -> tuple:
    """Default candidate exponents: whole numbers 0..limit, limit >= 0.

    The limit must reach 54 for the largest-zero constraint to be satisfiable
    at n = 5 with equal exponents, hence the roomy default."""
    return tuple(Fraction(i) for i in range(whole_index("limit", limit) + 1))


def rational_candidates(limit: int = 64) -> tuple:
    """Rational candidates in [0, limit], limit >= 0, with denominators up to 4."""
    limit = whole_index("limit", limit)
    return tuple(sorted({Fraction(num, den) for den in range(1, 5)
                         for num in range(limit * den + 1)}))


def _second(alpha, omega):
    """alpha * omega, exact where a float meets a rational beyond the float range."""
    try:
        return alpha * omega
    except OverflowError:
        return Fraction(alpha) * Fraction(omega)


def _feasible_candidates(cands, omega) -> list:
    """The candidates alpha, in order, with alpha > -1 and omega * alpha > -1:
    exact for a rational alpha and omega (compared as integers, with no
    Fraction built per candidate), else on the pair's second exponent as the
    build forms it (_second: one float product, exact only where that would
    overflow). So an omega beyond the float range filters rational
    candidates all the same."""
    exact = is_exact(omega)
    p, q = Fraction(omega).as_integer_ratio() if exact else (None, None)
    feasible = []
    for alpha in cands:
        if exact and is_exact(alpha):
            num, den = alpha.numerator, alpha.denominator
            if num > -den and p * num > -q * den:
                feasible.append(alpha)
        elif alpha > -1 and _second(alpha, omega) > -1:
            feasible.append(alpha)
    return feasible


def _exponents(n: int, alphas, omega) -> tuple:
    """The float exponents (a, b) of the pairs (alpha, alpha * omega), as
    check_jacobi_weight gives them, which raises for the first pair it
    refuses. For rational alpha and omega, a and b are integer true
    divisions of numerators by denominators, which round as float(Fraction)
    does, so no Fraction is built per candidate."""
    if is_exact(omega) and all(is_exact(alpha) for alpha in alphas):
        p, q = Fraction(omega).as_integer_ratio()
        try:
            a = [alpha.numerator / alpha.denominator for alpha in alphas]
            b = [p * alpha.numerator / (q * alpha.denominator) for alpha in alphas]
        except OverflowError:
            pass
        else:
            if min(a) > -1 and min(b) > -1:
                return a, b
    exps = [check_jacobi_weight(n, alpha, _second(alpha, omega))[2:] for alpha in alphas]
    return [a for a, _ in exps], [b for _, b in exps]


def _largest_zeros(n: int, alphas, omega) -> tuple:
    """The zeros of each pair (alpha, alpha * omega) from one Golub--Welsch
    solve of their stack, the only solve of more than one pair: row r of xs
    pair r's zeros descending in x, and each pair's largest lambda = -ln x,
    by math.log as in ZeroSet. The checks that need no member run on every
    row in numpy; the first row that fails one goes to guarded_zero_set,
    which raises the error e_zeros raises for it. The residual guard is
    left to guarded_zero_set on the row the caller keeps."""
    import numpy as np

    x, _, finite = golub_welsch(*jacobi_entries(n, *_exponents(n, alphas, omega)))
    xs = x[:, ::-1]
    simple = (xs[:, 0] < 1) & (xs[:, -1] > 0) & ~(xs[:, :-1] - xs[:, 1:] < 1e-12).any(axis=1)
    for r in np.flatnonzero(~(finite & simple))[:1]:
        guarded_zero_set(n, alphas[r], _second(alphas[r], omega), xs[r], finite[r])  # raises
    return xs, [-math.log(x) for x in xs[:, -1].tolist()]


# Jacobi-matrix entries per stacked eigen-solve of the search (1 MiB of
# float64): candidates go through _largest_zeros in blocks of this many over n * n
_STACK_ENTRIES = 1 << 17


def _search(n: int, omega, candidates) -> tuple:
    """(n, omega, alpha, row) of z_search: n and omega as whole_index and
    finite_param read them, row the chosen pair's zeros, descending in x."""
    n, omega = whole_index("n", n, 1), finite_param("omega", omega)
    cands = sorted(candidates)
    if not cands:
        raise FeasibilityError("empty candidate set")
    feasible = _feasible_candidates(cands, omega)
    if not feasible:
        raise FeasibilityError(
            f"no candidate gives an integrable weight (alpha > -1 and omega * alpha > -1; "
            f"n={n}, omega={omega}, {len(cands)} candidates)")
    size = max(1, _STACK_ENTRIES // max(1, n * n))
    best = None
    for start in range(0, len(feasible), size):
        block = feasible[start:start + size]
        xs, lams = _largest_zeros(n, block, omega)
        for alpha, x, lam in zip(block, xs, lams):
            if lam <= 1 and (best is None or lam > best[0]):
                best = lam, alpha, x
    if best is None:
        raise FeasibilityError(
            f"no candidate keeps the largest zero below 1 (n={n}, omega={omega})")
    return n, omega, *best[1:]


def z_search(n: int, omega, candidates) -> tuple:
    """Maximize the largest zero over the candidate exponents subject to the
    zero staying <= 1, for n >= 1 and a finite omega. Returns (alpha, gamma);
    ties go to the smallest alpha.

    Every feasible candidate's zeros come from stacked Golub--Welsch solves
    (_largest_zeros: one numpy.linalg.eigh call per block of about
    2**17 / n**2 candidates, so memory stays bounded), which check each
    candidate's Jacobi matrix and zeros; the largest zeros are reduced in
    sorted order, so permutations cannot change the result, and only the
    chosen candidate's row gets the residual guard and a ZeroSet
    (exppoly.guarded_zero_set, here or in _assemble). FeasibilityError when
    no candidate gives an integrable weight or none keeps the largest zero <= 1."""
    n, omega, alpha, row = _search(n, omega, candidates)
    return alpha, guarded_zero_set(n, alpha, _second(alpha, omega), row).max_lambda()


def _search_real(n: int, omega) -> tuple:
    """(n, omega, alpha, row) of z_search_real, as _search gives them (omega a
    float), the row kept from the step that found alpha: no pair is solved twice."""
    n, om = whole_index("n", n, 1), float(finite_param("omega", omega))
    lo = (-1.0 / om if om > 1 else -1.0) + 1e-9
    hi = min(64.0, -1.0 / om * (1 - 1e-9)) if om < 0 else 64.0

    def step(a):
        xs, lams = _largest_zeros(n, [a], om)
        return lams[0], xs[0]

    lam, x_hi = step(hi)
    if lam > 1:
        raise FeasibilityError("largest zero exceeds 1 over the whole search range")
    lam_lo, x_lo = step(lo)
    if lam_lo < 1:
        # already feasible at the lower end: zero never reaches 1
        return n, om, lo, x_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lam, x = step(mid)
        if lam > 1:
            lo = mid
        else:
            hi, x_hi = mid, x
        if hi - lo < 1e-12:
            break
    return n, om, hi, x_hi


def z_search_real(n: int, omega) -> tuple:
    """Real-valued boundary search, n >= 1 and a finite omega: bisect for the
    exponent where the largest zero equals 1, which attains equality in the
    gamma <= 1 requirement; returns (alpha, its largest zero).
    The bracket runs from just above the smallest integrable exponent (-1,
    or -1/omega for omega > 1) to 64 (or just below -1/omega for omega < 0),
    and the search stops once it is narrower than 1e-12.
    Each step solves its one pair once, by _largest_zeros with the checks
    that need no member; the result is the step that last set the upper end
    (or the feasible lower end), its largest zero read from its row as every
    step's is, unguarded: only z_build_real's _assemble guards that row."""
    _, _, alpha, row = _search_real(n, omega)
    return alpha, -math.log(row[-1])


@dataclass(frozen=True)
class ZSystemSpec:
    """A built Z or Z-tilde system: omega as exact.finite_param reads it
    (as a float from z_build_real), chosen exponent, achieved largest zero,
    and the full zero table of the associated function."""

    n: int
    omega: object
    alpha_n: object
    gamma_n: float
    scaled: bool
    zeros: ZeroSet

    @property
    def beta_n(self):
        return _second(self.alpha_n, self.omega)

    @property
    def _factor(self) -> float:
        """The argument scale: the members are read at factor * t."""
        return self.gamma_n if self.scaled else 1.0

    def member_eval(self, k: int, t) -> float:
        """Basis member on [0,1], k in 0..n: index 0 is the constant 1, index
        k = 1..n the k-th (possibly rescaled) exponential member."""
        k = whole_index("k", k, 0, self.n)
        return float(self.member_matrix((t,))[0, k])

    def member_matrix(self, ts):
        """member_eval(k, t) for each t (rows) and k = 0..n (columns), as a numpy
        array; the members come from one rows call."""
        import numpy as np

        out = np.ones((len(ts), self.n + 1))
        out[:, 1:] = self.rows(ts, 1).T
        return out

    def rows(self, ts, lo: int = 0):
        """The rows k = lo..n of member_values at x = exp(-factor t), one
        column per t: the one evaluator of the system's values, row 0 the
        associated function. ValueError names a t < 0, where x > 1 lies
        outside the members' [0, 1] (exppoly.semi_axis_point)."""
        xs = [math.exp(-(self._factor * semi_axis_point(t))) for t in ts]
        return member_values(self.alpha_n, self.beta_n, self.n, xs, lo)

    def associated_eval(self, t) -> float:
        """The k = 0 associated function, row 0 of rows."""
        return float(self.rows((t,))[0, 0])

    def collocation_nodes(self) -> tuple:
        """t = 0 plus the zeros of the associated function mapped into (0,1]."""
        return (0.0,) + tuple(lam / self._factor for lam in self.zeros.lambdas)


def _assemble(n: int, omega, alpha_n, row, unscaled_tol: float) -> ZSystemSpec:
    """The system of a search's (n, omega, alpha, row), its row guarded here for
    both builds (exppoly.guarded_zero_set); unscaled (Z) when gamma, the largest
    zero, is within unscaled_tol of 1, and the associated function must vanish at t = 1."""
    zeros = guarded_zero_set(n, alpha_n, _second(alpha_n, omega), row)
    gamma_n = zeros.max_lambda()
    scaled = not math.isclose(gamma_n, 1.0, rel_tol=0, abs_tol=unscaled_tol)
    spec = ZSystemSpec(n=n, omega=omega, alpha_n=alpha_n, gamma_n=gamma_n,
                       scaled=scaled, zeros=zeros)
    endpoint = spec.associated_eval(1.0)
    if abs(endpoint) > 1e-9:
        raise FeasibilityError(
            f"built system violates the endpoint-zero condition: {endpoint:.3g}")
    return spec


def z_build(n: int, omega, candidates) -> ZSystemSpec:
    """Run the search (n >= 1, a finite omega), then assemble the system from
    the chosen candidate's row, so a build is one stacked eigen-solve per
    candidate block and no more; the associated function must vanish at t = 1."""
    return _assemble(*_search(n, omega, candidates), GAMMA_UNSCALED_TOL)


def z_build_real(n: int, omega) -> ZSystemSpec:
    """z_build (n >= 1, a finite omega) by the real-valued boundary search."""
    return _assemble(*_search_real(n, omega), 1e-9)


@dataclass(frozen=True)
class CollocationResult:
    coeffs: tuple
    node_residual: float
    max_grid_error: float
    cond: float


def z_collocation_fit(f, spec: ZSystemSpec) -> CollocationResult:
    """Interpolate f on [0,1] in the basis {1, members}: collocate at t = 0
    plus the zeros of the associated function, solve the square system, and
    report the node residual and the max error on a uniform grid of 257
    points."""
    import numpy as np

    nodes = spec.collocation_nodes()
    matrix = spec.member_matrix(nodes)
    rhs = np.array([float(f(t)) for t in nodes])
    cond = float(np.linalg.cond(matrix))
    if not np.isfinite(cond) or cond > 1e14:
        raise CollocationError(f"collocation matrix near-singular (cond {cond:.3g})",
                               cond=cond)
    coeffs = np.linalg.solve(matrix, rhs)
    node_residual = float(np.max(np.abs(matrix @ coeffs - rhs)))
    grid = np.linspace(0.0, 1.0, 257)
    approx = sum(c * col for c, col in zip(coeffs, spec.member_matrix(grid).T))
    errs = [abs(float(f(t)) - a) for t, a in zip(grid, approx)]
    return CollocationResult(tuple(float(c) for c in coeffs), node_residual,
                             max(errs), cond)

