"""Sharp interpolation constants and spectral-bound verification on tori."""

__version__ = "0.1.0"

from .special import (
    semiclassical_constant,
    product_identity_check,
    lt_to_orthonormal_constant,
    xcoth_kernel,
    xcoth_excess,
)
from .interp import (
    ConstantResult,
    CurveTable,
    g_objective,
    f_objective,
    k1,
    k2,
    beta_star,
    beta_star_star,
    export_curve,
)
from .reports import BoundReport, ConvergenceError
from .spectral1d import (
    MatrixPotential,
    EigenReport,
    random_psd_potential,
    trace_power_integral,
    assemble_h1,
    assemble_h2,
    negative_spectrum,
    riesz_mean,
    verify_bound_h1,
    verify_bound_h2,
)
from .families import (
    OrthonormalFamily,
    random_orthonormal_family,
    density_and_kinetic,
    verify_trace1,
    verify_trace2,
    verify_interpolation,
)
from .torus import (
    TorusGeometry,
    BetaSelection,
    ScalarPotentialD,
    choose_betas,
    assemble_torus_operator,
    potential_power_integral,
    verify_bound_torus,
)
from .attractor import (
    FlowParams,
    ValidityError,
    dim_bound_square,
    dim_bound_elongated,
    kolmogorov_number,
)
