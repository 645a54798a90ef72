"""Closed-form attractor-dimension bounds for damped-driven 2D flows.

Pure arithmetic on the flow parameters; the only state is a validity guard
on each torus estimate.  The density-bound constants c_lt (square
torus, default 3/2) and c_q (elongated torus, default 6) are parameters, so
sharper values can be plugged in later.  C_P = pi/6, the elongated estimate's
orthonormal-family constant, ends the constant chain at gamma = 1 on the
2-torus, which stays in the unit regime at every period ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FlowParams",
    "ValidityError",
    "dim_bound_square",
    "dim_bound_elongated",
    "kolmogorov_number",
    "C_P",
]

C_P = math.pi / 6.0


class ValidityError(ValueError):
    """A formula was evaluated outside its hypothesis region."""


@dataclass(frozen=True)
class FlowParams:
    """Damped-driven flow parameters.

    nu: viscosity, mu: damping, length: box period L, aspect: ratio of the
    short to the long period (in (0, 1]), grad_g_norm: L2 norm of the
    forcing gradient.
    """

    nu: float
    mu: float
    length: float
    grad_g_norm: float
    aspect: float = 1.0

    def __post_init__(self):
        if not (self.nu > 0 and self.mu > 0 and self.length > 0):
            raise ValueError("nu, mu and length must be positive")
        if not 0.0 < self.aspect <= 1.0:
            raise ValueError("aspect ratio must lie in (0, 1]")
        if not self.grad_g_norm >= 0:
            raise ValueError("forcing norm cannot be negative")


def dim_bound_square(params: FlowParams, c_lt: float = 1.5) -> float:
    """min( (c_lt/8) G^2/(nu mu^3), (c_lt/sqrt2) G L/(nu mu) ), G = ||grad g||.

    With the default c_lt the two coefficients are 3/16 and 3/(2 sqrt2).
    The first branch wins in the small-viscosity limit, the second for weak
    forcing on a small box.  Valid on the square torus only (aspect 1).
    """
    if not c_lt > 0:
        raise ValueError("c_lt must be positive")
    if params.aspect != 1.0:
        raise ValidityError(f"aspect={params.aspect} is not 1; the square-torus estimate does not apply")
    g = params.grad_g_norm
    first = (c_lt / 8.0) * g * g / (params.nu * params.mu**3)
    second = (c_lt / math.sqrt(2.0)) * g * params.length / (params.nu * params.mu)
    return min(first, second)


def dim_bound_elongated(params: FlowParams, c_q: float = 6.0) -> float:
    """(C_P/2 + sqrt(C_P c_q)) * ||grad g||^2 / (nu mu^3), aspect-uniform.

    The default c_q gives the coefficient pi/12 + sqrt(pi).  Only valid for
    nu <= 8 mu L^2 (the hypothesis of the underlying trace estimate); outside
    that region no bound is claimed and ValidityError is raised.
    """
    if not c_q > 0:
        raise ValueError("c_q must be positive")
    if params.nu > 8.0 * params.mu * params.length**2:
        raise ValidityError(
            f"nu={params.nu} exceeds 8*mu*L^2={8.0 * params.mu * params.length**2}; "
            "the elongated-torus estimate does not apply"
        )
    coeff = 0.5 * C_P + math.sqrt(C_P * c_q)
    return coeff * params.grad_g_norm**2 / (params.nu * params.mu**3)


def kolmogorov_number(params: FlowParams) -> float:
    """The dimensionless forcing number ||grad g||^2 / (nu mu^3)."""
    return params.grad_g_norm**2 / (params.nu * params.mu**3)
