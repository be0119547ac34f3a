"""Alternative Jacobi polynomial families on [0,1], their exponential
counterparts on the semi-axis, the associated Gauss-type quadratures, and the
discretely-almost-orthogonal Z systems."""

from .errors import (
    AltpolyError,
    CollocationError,
    DivergenceError,
    FeasibilityError,
    NonNormalizableError,
    RecurrenceError,
    RootFindingError,
)
from .exact import PiRational, double_factorial, falling_factorial
from .exppoly import (
    ExpPolySystem,
    ProjectionResult,
    ZeroSet,
    e_eval,
    e_norm,
    e_zeros,
    ea_derivative_relation_residual,
    ea_eval,
    et_eval,
    legendre_type_quadrature,
    member_values,
    project,
    semi_axis_rule,
)
from .marginal import (
    MarginalKind,
    a_coefficients,
    a_norm,
    a_recurrence,
    a_single_integral,
    is_normalizable,
    t_coefficients,
    t_norm,
    t_recurrence,
    t_single_integral,
)
from .poly import DensePoly
from .polycore import (
    PolyParams,
    ajp_coefficients,
    ajp_derivative,
    ajp_eval,
    ajp_norm_h,
    ajp_recurrence,
    ajp_single_integral,
    direct_norm_d,
    ode_residual,
    shifted_jacobi,
    weight_eval,
)
from .quad import (
    QuadRule,
    beta_moment,
    gauss_jacobi_rule,
    integrate_semi_axis,
    integrate_unit,
    weighted_inner_product,
)
from .zfun import (
    ZSystemSpec,
    lambda_max,
    etilde_eval,
    weight_peak,
    z_build,
    z_build_real,
    z_collocation_fit,
    z_search,
    z_search_real,
)

__version__ = "0.1.0"
