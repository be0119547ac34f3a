"""Spans around altpoly's public functions, installed from outside the package.

Each traced function is replaced, at every ``altpoly.*`` module attribute that
holds it, by a wrapper that records a span: name, start, end, parent span,
op id, and whether it raised. Because callers inside the package look the
function up in their own module globals, calls between layers are caught too.
Spans stay in memory and are written out by the caller when the run ends.

The two ``poly`` methods (``DensePoly.__mul__`` and ``DensePoly.__call__``)
run hundreds of thousands of times on small inputs; a full span there would
cost more than the work it measures. They get a light wrapper that keeps only
a call count and a time total, which is still subtracted from the enclosing
span so every parent's self time stays correct.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs; each span is named <module>.<function>
TRACED = [
    ("polycore", "ajp_coefficients"),
    ("polycore", "ajp_recurrence"),
    ("polycore", "ajp_norm_h"),
    ("polycore", "direct_coefficients"),
    ("polycore", "reciprocity_coefficients"),
    ("polycore", "direct_norm_d"),
    ("polycore", "shifted_jacobi"),
    ("polycore", "shifted_jacobi_coefficients"),
    ("polycore", "ode_residual_poly"),
    ("polycore", "diff_formula_residual"),
    ("polycore", "dd_raising_residual"),
    ("polycore", "dd_lowering_residual"),
    ("exact", "exact_gamma2_ratio"),
    ("quad", "beta_moment"),
    ("quad", "weighted_inner_product"),
    ("quad", "gauss_jacobi_rule"),
    ("quad", "integrate_unit"),
    ("marginal", "a_coefficients"),
    ("marginal", "t_coefficients"),
    ("marginal", "a_recurrence"),
    ("marginal", "t_recurrence"),
    ("marginal", "a_norm"),
    ("marginal", "t_norm"),
    ("marginal", "a_single_integral"),
    ("marginal", "t_single_integral"),
    ("exppoly", "e_zeros"),
    ("exppoly", "legendre_type_quadrature"),
    ("exppoly", "semi_axis_rule"),
    ("exppoly", "project"),
    ("zfun", "lambda_max"),
    ("zfun", "z_search"),
    ("zfun", "z_build"),
    ("zfun", "z_collocation_fit"),
]
LIGHT = [("__mul__", "poly.mul"), ("__call__", "poly.horner")]


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []            # (name, start, end, parent, op_id, raised, self_s)
        self.light = defaultdict(lambda: [0, 0.0])
        self.repeat_keys = set()
        self.ajp_repeats = 0
        self.gamma_pirational = 0
        self.op_id = -1
        self._stack = []           # [span index, child seconds]
        self._patches = []

    # -------------------------------------------------------------- patching
    def install(self):
        package = [mod for name, mod in list(sys.modules.items())
                   if (name == "altpoly" or name.startswith("altpoly.")) and mod is not None]
        for modname, attr in TRACED:
            original = getattr(sys.modules[f"altpoly.{modname}"], attr)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, val))
                        setattr(mod, key, wrapper)
        dense = sys.modules["altpoly.poly"].DensePoly
        for attr, name in LIGHT:
            original = dense.__dict__[attr]
            self._patches.append((dense, attr, original))
            setattr(dense, attr, self._wrap_light(name, original))

    def uninstall(self):
        for owner, key, val in reversed(self._patches):
            setattr(owner, key, val)
        self._patches.clear()

    # -------------------------------------------------------------- wrappers
    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers().get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, start, end, parent, self.op_id, raised,
                                end - start - frame[1])
                if observe is not None and not raised:
                    observe(args, result)

        traced.__wrapped__ = fn
        return traced

    def _wrap_light(self, name, fn):
        stats, stack = self.light[name], self._stack

        def light(*args):
            start = perf_counter()
            result = fn(*args)
            spent = perf_counter() - start
            stats[0] += 1
            stats[1] += spent
            if stack:
                stack[-1][1] += spent
            return result

        return light

    def _observers(self):
        def ajp(args, _result):
            p = args[0]
            key = (p, p.exact)
            if key in self.repeat_keys:
                self.ajp_repeats += 1
            else:
                self.repeat_keys.add(key)

        def gamma(_args, result):
            if hasattr(result, "pi_coeff"):
                self.gamma_pirational += 1

        return {"polycore.ajp_coefficients": ajp, "exact.exact_gamma2_ratio": gamma}

    # ------------------------------------------------------------ summaries
    def totals(self):
        """name -> [calls, self seconds, raised count] over all spans."""
        out = defaultdict(lambda: [0, 0.0, 0])
        for name, _s, _e, _p, _op, raised, self_s in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += self_s
            row[2] += raised
        for name, (calls, spent) in self.light.items():
            out[name][0] += calls
            out[name][1] += spent
        return out

    def records(self):
        """Spans as JSON-ready dicts, in the order they started."""
        for i, (name, start, end, parent, op_id, raised, _self) in enumerate(self.spans):
            yield {"id": i, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op_id, "raised": raised}
