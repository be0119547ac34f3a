"""Alternative Jacobi polynomial families on [0,1], their exponential
counterparts on the semi-axis, the associated Gauss-type quadratures, and the
discretely-almost-orthogonal Z systems.

Importing the package loads none of its submodules. Each public name below
is imported from its submodule on first access (PEP 562), as is each
submodule (``altpoly.quad``), so ``python -m altpoly <cmd>`` compiles only
the modules that command runs.
"""

import sys

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "errors": ("AltpolyError", "CoefficientOverflowError", "CollocationError",
               "DivergenceError", "FeasibilityError", "NonNormalizableError",
               "RecurrenceError", "RootFindingError", "ValueRangeError"),
    "exact": ("PiRational", "double_factorial", "falling_factorial"),
    "exppoly": ("ExpPolySystem", "ProjectionResult", "ZeroSet", "e_eval", "e_norm",
                "e_zeros", "ea_derivative_relation_residual", "ea_eval", "et_eval",
                "legendre_type_quadrature", "member_values", "project", "semi_axis_rule"),
    "marginal": ("MarginalKind", "a_coefficients", "a_norm", "a_recurrence",
                 "a_single_integral", "is_normalizable", "t_coefficients", "t_norm",
                 "t_recurrence", "t_single_integral"),
    "poly": ("DensePoly",),
    "polycore": ("PolyParams", "ajp_coefficients", "ajp_derivative", "ajp_eval", "ajp_norm_h",
                 "ajp_recurrence", "ajp_single_integral", "direct_norm_d", "ode_residual",
                 "shifted_jacobi", "weight_eval"),
    "quad": ("QuadRule", "beta_moment", "gauss_jacobi_rule", "integrate_semi_axis",
             "integrate_unit", "weighted_inner_product"),
    "zfun": ("ZSystemSpec", "lambda_max", "etilde_eval", "weight_peak", "z_build",
             "z_build_real", "z_collocation_fit", "z_search", "z_search_real"),
}
_SUBMODULES = (*_EXPORTS, "cli", "verify")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ is what the import statement calls; unlike
    # importlib.import_module, it reports the submodule under -X importtime
    __import__(f"{__name__}.{module}")
    submodule = sys.modules[f"{__name__}.{module}"]
    value = submodule if module == name else getattr(submodule, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
