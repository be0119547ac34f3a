"""Seeded op streams for the in-process workloads.

An op is one public call into altpoly plus the check of its result against
an oracle from ``oracles``. Ops are built without touching the oracle; the
measuring loop in ``run.py`` evaluates ``op.expect()`` before it starts the
op's clock, so oracle work never counts as library time. Oracles are
memoized, so each distinct input costs its oracle once per process.

A pass is a fixed number of blocks; a block is a fixed list of slots. Each
slot cycles through its sizes in an order that does not depend on the seed,
so every seed runs the same mix of kinds and sizes and the seed draws only
the parameters: exponents, lower indices, rates, evaluation points. Library
functions are looked up on their module at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

import oracles as O

WRONG = math.inf
FLOAT_TOL = 1e-9     # relative error allowed on every float op, fixed up front
INT_PARAMS = tuple(range(7))
HALF_PARAMS = tuple(F(2 * i - 1, 2) for i in range(5))      # -1/2 .. 7/2
Z_OMEGAS = (F(0), F(1, 2), F(1))
Z_CANDIDATES = tuple(F(i) for i in range(65))


@dataclass
class Op:
    """One call plus its check. ``check(result, expected)`` returns 0.0 for an
    exact match, the relative error for float results, WRONG otherwise."""

    kind: str
    size: int
    call: Callable[[], object]
    expect: Callable[[], object]
    check: Callable[[object, object], float]
    is_float: bool = False
    refuses: bool = False      # a size where the library refused when this was written
    defect: bool = False       # ... where it refused or answered outside the tolerance
    follow: Callable[[object], "Op | None"] | None = None
    observe: Callable[[object], float] | None = None
    params: dict = field(default_factory=dict)

    @property
    def tol(self) -> float:
        return FLOAT_TOL if self.is_float else 0.0


class Strata:
    """Seeded draws, stratified per call: each distinct call (``randint(0,
    7)``, ``choice(seq)``, ``random()``, ``uniform(lo, hi)``) in each scope
    walks a seed-shuffled cycle through its whole range (for the continuous
    draws, one point from each of UNIT_BINS equal bins). Op factories draw
    in a scope of their kind and size, so every seed gives each (kind, size)
    the same spread of inputs and changes only their order and pairing;
    without that the median latency of a pass moves with the seed."""

    UNIT_BINS = 16

    def __init__(self, seed, rng=None, cycles=None, prefix=()):
        self.rng = rng or random.Random(seed)
        self.cycles = {} if cycles is None else cycles
        self.prefix = prefix

    def scope(self, *names):
        """A view whose draws are stratified apart from every other scope's."""
        return Strata(None, self.rng, self.cycles, self.prefix + names)

    def draw(self, key, make):
        key = self.prefix + key
        cycle = self.cycles.get(key)
        if not cycle:
            cycle = self.cycles[key] = list(make())
            self.rng.shuffle(cycle)
        return cycle.pop()

    def unit(self, key):
        return self.draw(key, lambda: [(i + self.rng.random()) / self.UNIT_BINS
                                       for i in range(self.UNIT_BINS)])

    def random(self):
        return self.unit(("random",))

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.unit(("uniform", lo, hi))

    def randint(self, lo, hi):
        return self.draw(("randint", lo, hi), lambda: range(lo, hi + 1))

    def choice(self, seq):
        return self.draw(("choice", tuple(seq)), lambda: seq)


class Cycle:
    """Visits every value once per pass over ``values``, in a shuffled order
    fixed by ``key`` alone, so all seeds see sizes in the same order."""

    def __init__(self, key, values):
        self.values = list(values)
        random.Random(key).shuffle(self.values)
        self.i = -1

    def __call__(self):
        self.i += 1
        return self.values[self.i % len(self.values)]


# ------------------------------------------------------------------ checks

def same_coeffs(poly, expected) -> float:
    return 0.0 if tuple(poly.coeffs) == O.strip(expected) else WRONG


def same_sequence(seq, expected) -> float:
    if len(seq) != len(expected):
        return WRONG
    return max(same_coeffs(p, e) for p, e in zip(seq, expected))


def exact_scalars(values, refs) -> float:
    return 0.0 if all(O.matches(v, r) for v, r in zip(values, refs)) else WRONG


def rel_vec_err(got, want) -> float:
    got, want = list(got), list(want)
    if len(got) != len(want):
        return WRONG
    scale = max(abs(w) for w in want)
    return max(abs(float(g) - w) for g, w in zip(got, want)) / scale


def rule_moment_err(nodes, weights, mus) -> float:
    """Worst relative error of the rule on x^j, j < len(mus)."""
    pw, worst = list(weights), 0.0
    for mu in mus:
        worst = max(worst, abs(math.fsum(pw) - mu) / mu)
        pw = [p * x for p, x in zip(pw, nodes)]
    return worst


def zeros_err(source_x, expected) -> float:
    xs = sorted(source_x)
    if len(xs) != len(expected):
        return WRONG
    return float(max(abs(F(x) - z) / z for x, z in zip(xs, expected)))


def semi_axis_err(nodes, weights, n: int) -> float:
    """The semi-axis rule must integrate exp(-m t) to 1/m for m = 2..2n+1."""
    return max(abs(math.fsum(v * math.exp(-m * t) for t, v in zip(nodes, weights)) - 1 / m) * m
               for m in range(2, 2 * n + 2))


def z_refuses(n: int, omega) -> bool:
    """Sizes where z_build refused when this benchmark was written."""
    return n >= {F(0): 10, F(1, 2): 7, F(1): 6}[omega]


# -------------------------------------------------------------- op factories

class ExactOps:
    """Op factories of the exact workloads; each draws its inputs in the
    scope of its kind and size."""

    def __init__(self, lib, rng: Strata, params):
        self.lib, self.rng, self.params = lib, rng, params

    def draw(self, rng):
        """(alpha, beta), each stratified on its own."""
        return rng.scope("alpha").choice(self.params), rng.scope("beta").choice(self.params)

    def member(self, n, k=None):
        rng = self.rng.scope("member", n, k)
        a, b = self.draw(rng)
        k = rng.randint(0, n) if k is None else k
        pc = self.lib.polycore
        return Op("member", n, lambda: pc.ajp_coefficients(pc.PolyParams(a, b, n, k)),
                  lambda: O.member_coeffs(a, b, n, k), same_coeffs,
                  params=dict(alpha=a, beta=b, n=n, k=k))

    def member_full(self, n):
        """The k = 0 member, the costliest one of degree n."""
        return self.member(n, 0)

    def gram(self, n, kl=None):
        rng = self.rng.scope("gram", n, kl)
        a, b = self.draw(rng)
        if kl is None:
            k = rng.randint(0, n)
            l = k if rng.random() < 1 / 3 else rng.scope("l").randint(0, n)
        else:
            k, l = kl
        pc, quad = self.lib.polycore, self.lib.quad

        def call():
            ip = quad.weighted_inner_product(pc.ajp_coefficients(pc.PolyParams(a, b, n, k)),
                                             pc.ajp_coefficients(pc.PolyParams(a, b, n, l)),
                                             a, b)
            return (ip, pc.ajp_norm_h(pc.PolyParams(a, b, n, k))) if k == l else (ip,)

        def expect():
            ref = O.norm_h(a, b, n, k) if k == l else (F(0), 0)
            return (ref, ref) if k == l else (ref,)

        return Op("gram", n, call, expect, exact_scalars,
                  params=dict(alpha=a, beta=b, n=n, k=k, l=l))

    def gram_full(self, n):
        """Diagonal Gram entry of the k = 0 member: equal cost at every seed."""
        return self.gram(n, (0, 0))

    def recurrence(self, n):
        a, b = self.draw(self.rng.scope("recurrence", n))
        pc = self.lib.polycore
        return Op("recurrence", n, lambda: pc.ajp_recurrence(a, b, n),
                  lambda: [O.member_coeffs(a, b, n, k) for k in range(n, -1, -1)],
                  same_sequence, params=dict(alpha=a, beta=b, n=n))

    def identity(self, n, which=None, k=None):
        rng = self.rng.scope("identity", n, which, k)
        a, b = self.draw(rng)
        which = which or rng.choice(("ode_residual_poly", "diff_formula_residual",
                                     "dd_raising_residual", "dd_lowering_residual"))
        if k is None:
            lo = 1 if which == "dd_lowering_residual" else 0
            hi = n - 1 if which == "diff_formula_residual" else n
            k = rng.randint(lo, hi)
        pc = self.lib.polycore
        return Op("identity", n, lambda: getattr(pc, which)(pc.PolyParams(a, b, n, k)),
                  lambda: (), same_coeffs, params=dict(alpha=a, beta=b, n=n, k=k, which=which))

    def identity_full(self, n):
        """Differential-equation residual of the k = 0 member."""
        return self.identity(n, "ode_residual_poly", 0)

    def direct(self, n):
        """Direct family, reciprocity route, or a pointwise shifted Jacobi value."""
        rng = self.rng.scope("direct", n)
        a, b = self.draw(rng)
        pc = self.lib.polycore
        variant = rng.choice(("direct", "reciprocity", "pointwise"))
        rng = rng.scope(variant)
        if variant == "direct":
            dn = rng.randint(0, n // 2)
            dk = dn + rng.scope("dk").randint(0, n - dn)
            if dk == 0 and a + b + 1 == 0:
                # the closed-form norm is 0/0 there: the library raises a
                # bare ValueError and the oracle has no value either
                dk = 1
            return Op("direct", n,
                      lambda: (pc.direct_coefficients(a, b, dn, dk), pc.direct_norm_d(a, b, dn, dk)),
                      lambda: (O.direct_coeffs(a, b, dn, dk), O.direct_norm(a, b, dn, dk)),
                      lambda got, want: max(same_coeffs(got[0], want[0]),
                                            exact_scalars(got[1:], want[1:])),
                      params=dict(variant=variant, alpha=a, beta=b, n=dn, k=dk))
        k = rng.randint(0, n)
        if variant == "reciprocity":
            return Op("direct", n, lambda: pc.reciprocity_coefficients(a, b, n, k),
                      lambda: O.member_coeffs(a, b, n, k), same_coeffs,
                      params=dict(variant=variant, alpha=a, beta=b, n=n, k=k))
        m, ap, x = n - k, a + 2 * k + 1, F(rng.randint(0, 16), 16)
        return Op("direct", n, lambda: pc.shifted_jacobi(m, ap, b, x),
                  lambda: O.poly_value(O.shifted_jacobi_coeffs(m, ap, b), x),
                  lambda got, want: 0.0 if got == want else WRONG,
                  params=dict(variant=variant, m=m, a=ap, b=b, x=x))

    # marginal families (exact-half only)
    def marginal_coeffs(self, n):
        rng = self.rng.scope("marginal_coeffs", n)
        kind, k = rng.choice("at"), rng.randint(0, n)
        ref = O.a_member if kind == "a" else O.t_member
        name = f"{kind}_coefficients"
        return Op("marginal_coeffs", n, lambda: getattr(self.lib.marginal, name)(n, k),
                  lambda: ref(n, k), same_coeffs, params=dict(call=name, n=n, k=k))

    def marginal_recurrence(self, n):
        kind = self.rng.scope("marginal_recurrence", n).choice("at")
        ref = O.a_member if kind == "a" else O.t_member
        name = f"{kind}_recurrence"
        return Op("marginal_recurrence", n, lambda: getattr(self.lib.marginal, name)(n),
                  lambda: [ref(n, k) for k in range(n, -1, -1)], same_sequence,
                  params=dict(call=name, n=n))

    def marginal_norm(self, n):
        """Closed-form marginal norms and integrals against Beta-moment sums."""
        rng = self.rng.scope("marginal_norm", n)
        kind = rng.choice("at")
        ref = O.a_member if kind == "a" else O.t_member
        weight = (F(-1), F(0)) if kind == "a" else (F(-3, 2), F(-1, 2))
        mg = self.lib.marginal
        if rng.choice((True, False)):
            k = rng.randint(1, n)
            name = f"{kind}_single_integral"
            return Op("marginal_norm", n, lambda: (getattr(mg, name)(n, k),),
                      lambda: (O.inner_product(ref(n, k), (F(1),), *weight),), exact_scalars,
                      params=dict(call=name, n=n, k=k))
        k = rng.randint(0, n)
        l = rng.scope("l").randint(max(k, 1), n)
        name = f"{kind}_norm"
        return Op("marginal_norm", n, lambda: (getattr(mg, name)(n, k, l),),
                  lambda: (O.inner_product(ref(n, k), ref(n, l), *weight),), exact_scalars,
                  params=dict(call=name, n=n, k=k, l=l))


class FloatOps:
    """Op factories of the float-rules workload."""

    def __init__(self, lib, rng: Strata):
        self.lib, self.rng = lib, rng

    @staticmethod
    def draw(rng, lo=0):
        """Float or rational (alpha, beta), alternately in a seeded order."""
        if rng.choice((True, False)):
            return round(rng.uniform(lo, 4), 3), round(rng.uniform(lo, 3), 3)
        return F(rng.randint(int(2 * lo), 8), 2), F(rng.randint(int(2 * lo), 6), 2)

    def rule(self, m):
        a, b = self.draw(self.rng.scope("rule", m), lo=-0.5)
        quad = self.lib.quad
        return Op("gauss_jacobi_rule", m, lambda: quad.gauss_jacobi_rule(m, a, b),
                  lambda: O.moments(a, b, 2 * m),
                  lambda r, mus: rule_moment_err(r.nodes, r.weights, mus), is_float=True,
                  params=dict(m=m, alpha=a, beta=b))

    def zeros(self, n):
        a, b = self.draw(self.rng.scope("zeros", n))
        ex = self.lib.exppoly
        return Op("e_zeros", n, lambda: ex.e_zeros(a, b, n), lambda: O.zeros_x(a, b, n),
                  lambda z, want: zeros_err(z.source_x, want), is_float=True,
                  refuses=n >= 21, defect=n >= 11, params=dict(alpha=a, beta=b, n=n))

    def semi(self, n):
        ex = self.lib.exppoly
        return Op("semi_axis_rule", n, lambda: ex.semi_axis_rule(n), lambda: n,
                  lambda r, nn: semi_axis_err(r.nodes, r.weights, nn), is_float=True,
                  refuses=n >= 22, defect=n >= 9, params=dict(n=n))

    def project(self, n):
        rng = self.rng.scope("project", n)
        a, b = F(rng.randint(1, 6), 2), F(rng.randint(0, 3), 2)
        r = rng.scope("rate").randint(1, n)
        ex = self.lib.exppoly

        def check(res, want):
            coeffs, norm = want
            return max(rel_vec_err(res.coeffs, coeffs), res.error / norm)

        return Op("project", n,
                  lambda: ex.project(lambda t: math.exp(-r * t), ex.ExpPolySystem(a, b, n)),
                  lambda: (O.expansion_coeffs(a, b, n, r), O.target_norm(a, b, r)),
                  check, is_float=True, defect=n >= 11, params=dict(alpha=a, beta=b, n=n, rate=r))

    def member_float(self, n):
        rng = self.rng.scope("member_float", n)
        a, b = round(rng.uniform(-0.5, 4), 3), round(rng.uniform(-0.5, 3), 3)
        pc = self.lib.polycore
        return Op("member_float", n, lambda: pc.ajp_coefficients(pc.PolyParams(a, b, n, 0)),
                  lambda: [float(c) for c in O.member_coeffs(a, b, n, 0)],
                  lambda p, want: rel_vec_err(p.coeffs, want), is_float=True,
                  refuses=n >= 200, defect=n >= 200, params=dict(alpha=a, beta=b, n=n, k=0))

    def zbuild(self, size):
        n, omega = size
        zf = self.lib.zfun

        def check(spec, want):
            if want is None:
                return WRONG        # no candidate qualifies, yet a system came back
            alpha, lam = want
            return WRONG if spec.alpha_n != alpha else abs(spec.gamma_n - lam) / lam

        refuses = z_refuses(n, omega)
        return Op("z_build", n, lambda: zf.z_build(n, omega, Z_CANDIDATES),
                  lambda: O.z_choice(n, omega), check, is_float=True,
                  refuses=refuses, defect=refuses, follow=self.collocation,
                  params=dict(n=n, omega=omega))

    def collocation(self, spec):
        """Fit exp(-r s t), s the system's scale, which lies in the span of
        {1, members}; the exact coefficients are 0 on the constant and the
        x^r expansion coefficients on the members."""
        n = spec.n
        r = self.rng.scope("collocation", n, spec.omega).randint(1, n)
        scale = spec.gamma_n if spec.scaled else 1.0
        zf = self.lib.zfun
        alpha, beta = F(spec.alpha_n), F(spec.alpha_n) * F(spec.omega)
        return Op("z_collocation_fit", n,
                  lambda: zf.z_collocation_fit(lambda t: math.exp(-r * scale * t), spec),
                  lambda: (0.0,) + O.expansion_coeffs(alpha, beta, n, r),
                  lambda res, want: rel_vec_err(res.coeffs, want), is_float=True,
                  defect=n >= 7, observe=lambda res: res.cond,
                  params=dict(n=n, alpha=alpha, omega=spec.omega, rate=r))


# ------------------------------------------------------------------ streams

@dataclass
class Slot:
    """Factory name and the sizes it cycles through; a slot with ``every = k``
    fires in every k-th block only."""

    factory: str
    sizes: tuple
    every: int = 1


SMALL = tuple(range(4, 17))
EXACT_BLOCK = [
    Slot("member", SMALL), Slot("gram", SMALL), Slot("identity", SMALL),
    Slot("member", SMALL), Slot("gram", SMALL), Slot("direct", SMALL),
    Slot("recurrence", SMALL), Slot("member", SMALL), Slot("gram", SMALL),
    Slot("identity", SMALL), Slot("direct", SMALL), Slot("gram", SMALL),
    Slot("member", SMALL), Slot("identity", SMALL), Slot("direct", SMALL),
    Slot("recurrence", SMALL), Slot("gram_full", (32,), 2), Slot("identity_full", (32,), 2),
    Slot("member_full", (100, 200), 18), Slot("recurrence", (100, 200), 36),
]
MARGINAL_SLOTS = [
    Slot("marginal_coeffs", SMALL), Slot("marginal_norm", SMALL),
    Slot("marginal_recurrence", SMALL), Slot("marginal_coeffs", SMALL),
    Slot("marginal_norm", SMALL),
]
RULE_SIZES = (8, 20, 50, 100)
FLOAT_BLOCK = [
    Slot("rule", RULE_SIZES), Slot("zeros", tuple(range(4, 31))),
    Slot("semi", tuple(range(4, 25))), Slot("project", tuple(range(4, 31))),
    Slot("rule", RULE_SIZES), Slot("zeros", tuple(range(4, 31))),
    Slot("member_float", (8, 20, 50, 100, 200)), Slot("rule", RULE_SIZES),
    Slot("zeros", tuple(range(4, 31))), Slot("semi", tuple(range(4, 25))),
    Slot("project", tuple(range(4, 31))),
    Slot("zbuild", tuple((n, om) for n in (2, 5, 8, 11) for om in Z_OMEGAS)),
]
# Blocks per pass: a whole number of the slowest cycles, so every pass holds
# the same heavy ops (exact: two n = 100..200 recurrences and four k = 0
# members; float: each of the 12 Z-system sizes three times). The n = 32
# slots sit just below those six, so the tail latency, ten ops from the top,
# falls among ops whose cost does not change with the seed. A pass holds
# some 450 to 1600 ops, so that its median latency barely moves with the
# seed: near the median the latencies are dense and a few ops more or less
# on one side shift it.
PASS_BLOCKS = {"exact-int": 72, "exact-half": 72, "float-rules": 36}


KINDS = {
    "exact-int": ("member", "gram", "recurrence", "identity", "direct"),
    "exact-half": ("member", "gram", "recurrence", "identity", "direct", "marginal_coeffs",
                   "marginal_recurrence", "marginal_norm"),
    "float-rules": ("gauss_jacobi_rule", "e_zeros", "semi_axis_rule", "project", "member_float",
                    "z_build", "z_collocation_fit"),
}


def factories(workload: str, lib, rng):
    if workload == "exact-int":
        return ExactOps(lib, rng, INT_PARAMS), EXACT_BLOCK
    if workload == "exact-half":
        return ExactOps(lib, rng, HALF_PARAMS), EXACT_BLOCK + MARGINAL_SLOTS
    if workload == "float-rules":
        return FloatOps(lib, rng), FLOAT_BLOCK
    raise KeyError(workload)


def stream(workload: str, lib, seed: int):
    """One pass of an in-process workload: PASS_BLOCKS blocks of seeded ops."""
    ops, block = factories(workload, lib, Strata(f"{workload}:{seed}"))
    cycles = [Cycle(f"{workload}:{i}", slot.sizes) for i, slot in enumerate(block)]
    for count in range(PASS_BLOCKS[workload]):
        for slot, cycle in zip(block, cycles):
            if count % slot.every == 0:
                yield getattr(ops, slot.factory)(cycle())


def warmups(workload: str, lib):
    """One op per kind at its smallest size; used to make the workload ready."""
    ops, block = factories(workload, lib, Strata(0))
    seen, out = set(), []
    for slot in block:
        if slot.factory not in seen:
            seen.add(slot.factory)
            out.append(getattr(ops, slot.factory)(min(slot.sizes)))
    return out
