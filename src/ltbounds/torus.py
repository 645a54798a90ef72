"""Projected Schrödinger operators on d-dimensional tori with period ratios.

The torus has periods 2*pi/alpha_1 >= ... >= 2*pi/alpha_d = 2*pi; the
projection removes the mean along the shortest coordinate, which is what
keeps the eigenvalue-moment constants bounded as the torus elongates.  The
constant in the final bound factorizes as

    (pi/sqrt3)^d * prod_j K1(beta_j) * K2(delta) * L_cl(gamma, d),

where the auxiliary masses beta_j > 0 must keep delta = sum alpha_j^2 beta_j
below 1.  With beta_j at the K1 threshold, delta stays below the K2
threshold for every geometry up to d = 19, and the K-factor product is
exactly 1 (the unit regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interp, special
from .reports import BoundReport
from .spectral1d import MatrixPotential, _assemble_lattice, _check_rows, _power_integral
from .spectral1d import _psd_coeffs, negative_spectrum, riesz_mean

__all__ = [
    "TorusGeometry",
    "BetaSelection",
    "ScalarPotentialD",
    "choose_betas",
    "lt_constant_bound",
    "assemble_torus_operator",
    "potential_power_integral",
    "verify_bound_torus",
]

_THRESHOLD_TOL = 1e-6
_DELTA_CAP = 1.0 - 1e-6


@dataclass(frozen=True)
class TorusGeometry:
    """Period ratios alpha_1 <= ... <= alpha_d = 1 (d >= 2)."""

    alphas: tuple

    def __post_init__(self):
        a = tuple(float(v) for v in self.alphas)
        object.__setattr__(self, "alphas", a)
        if len(a) < 2:
            raise ValueError("torus geometry needs d >= 2")
        if any(v <= 0 for v in a):
            raise ValueError("period ratios must be positive")
        if any(x > y + 1e-15 for x, y in zip(a, a[1:])):
            raise ValueError("period ratios must be non-decreasing")
        if a[-1] != 1.0:
            raise ValueError("the shortest-coordinate ratio must be exactly 1")

    @property
    def d(self) -> int:
        return len(self.alphas)

    @property
    def periods(self) -> tuple:
        return tuple(2.0 * math.pi / a for a in self.alphas)

    @property
    def volume(self) -> float:
        return float(np.prod(self.periods))


@dataclass(frozen=True)
class BetaSelection:
    """Auxiliary masses, their weighted sum delta, and the K-factor product."""

    betas: tuple
    delta: float
    constant_factor: float
    in_unit_regime: bool

    def __post_init__(self):
        if not self.delta < 1.0:
            raise ValueError("delta must stay below 1")
        if self.in_unit_regime and self.constant_factor != 1.0:
            raise ValueError("unit regime implies factor exactly 1")


def choose_betas(geom: TorusGeometry) -> BetaSelection:
    """Pick the auxiliary masses for a geometry.

    Working values sit one bisection tolerance inside the K1 = 1 / K2 = 1
    regions, so the unit-regime claim is conservative.  Outside the unit
    regime the K factors are evaluated and reported; if even delta < 1 fails
    at the threshold masses, all of them shrink uniformly until delta hits
    the cap just below 1.
    """
    beta = interp.beta_star(_THRESHOLD_TOL) + _THRESHOLD_TOL
    delta = beta * sum(a * a for a in geom.alphas[:-1])
    if delta <= interp.beta_star_star(_THRESHOLD_TOL) - _THRESHOLD_TOL:
        return BetaSelection(
            betas=(beta,) * (geom.d - 1),
            delta=delta,
            constant_factor=1.0,
            in_unit_regime=True,
        )
    if delta >= _DELTA_CAP:
        beta, delta = _DELTA_CAP / delta * beta, _DELTA_CAP
    return BetaSelection(
        betas=(beta,) * (geom.d - 1),
        delta=delta,
        constant_factor=interp.k1(beta).value ** (geom.d - 1) * interp.k2(delta).value,
        in_unit_regime=False,
    )


def lt_constant_bound(gamma: float, sel: BetaSelection, d: int) -> float:
    """(pi/sqrt3)^d * K-factor * semiclassical constant in dimension d."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    return (
        (math.pi / math.sqrt(3.0)) ** d
        * sel.constant_factor
        * special.semiclassical_constant(gamma, d)
    )


class ScalarPotentialD(MatrixPotential):
    """Real scalar potential on the d-torus: a MatrixPotential with 1x1
    blocks, whose exact adjoint pairing makes V real."""

    def __post_init__(self):
        super().__post_init__()
        if self.m_dim != 1:
            raise ValueError("a torus potential has 1x1 coefficient blocks")

    @classmethod
    def constant(cls, d: int, value: float) -> "ScalarPotentialD":
        if value < 0:
            raise ValueError("constant potential must be >= 0")
        return cls(np.full((1,) * (d + 2), value, dtype=complex))

    @classmethod
    def random(cls, d: int, band: int, scale: float, seed: int) -> "ScalarPotentialD":
        """V = |w|^2 for a random band-limited w; output band doubles."""
        pot = cls(_psd_coeffs(d, 1, band, scale, seed))
        pot.validate()
        return pot


def _check_dimension(potential: ScalarPotentialD, geom: TorusGeometry) -> None:
    if potential.d != geom.d:
        raise ValueError(f"a {potential.d}-dimensional potential on a {geom.d}-torus")


def _mode_list(n_modes, include_q_block: bool) -> np.ndarray:
    ranges = [np.arange(-n, n + 1) for n in n_modes]
    mesh = np.meshgrid(*ranges, indexing="ij")
    modes = np.stack([m.ravel() for m in mesh], axis=-1)
    if not include_q_block:
        modes = modes[modes[:, -1] != 0]
    return modes


def assemble_torus_operator(
    potential: ScalarPotentialD,
    geom: TorusGeometry,
    n_modes,
    include_q_block: bool = False,
) -> np.ndarray:
    """Galerkin matrix of -Laplacian - P V P on tensor Fourier modes.

    The basis is the range of the mean-removing projection (modes with
    k_d != 0); include_q_block=True adds the complementary k_d = 0 modes,
    on which the operator acts as the bare Laplacian (the projection kills
    the potential coupling there).  Either way the modes keep the
    lexicographic (meshgrid "ij") order of the (2n+1)^d box, so the k_d = 0
    modes are interleaved with the others, not appended after them.
    """
    _check_dimension(potential, geom)
    n_modes = tuple(int(n) for n in n_modes)
    if len(n_modes) != geom.d:
        raise ValueError("one truncation per axis required")
    if any(n < b for n, b in zip(n_modes, potential.bands)):
        raise ValueError("truncation must cover the potential band")
    if n_modes[-1] < 1:
        raise ValueError("need at least one mode pair along the projected axis")
    # counted before _mode_list builds the whole (2n+1)^d box
    last_axis = 2 * n_modes[-1] + (1 if include_q_block else 0)
    _check_rows(math.prod(2 * n + 1 for n in n_modes[:-1]) * last_axis)
    modes = _mode_list(n_modes, include_q_block)
    alphas = np.asarray(geom.alphas)
    kinetic = np.sum((alphas * modes) ** 2, axis=1)
    return _assemble_lattice(modes, kinetic, potential.coeffs, modes[:, -1] != 0)


def _quad_nodes(potential: ScalarPotentialD) -> tuple:
    return tuple(8 * (2 * b + 1) for b in potential.bands)  # 8 nodes per mode per axis


def potential_power_integral(
    potential: ScalarPotentialD, geom: TorusGeometry, p: float, grid=None
) -> float:
    """Integral of V_+^p over the torus: the tensor rectangle rule on the
    stated grid (default 8 nodes per mode per axis), refined by doubling."""
    _check_dimension(potential, geom)
    nodes = grid if grid is not None else _quad_nodes(potential)
    return _power_integral(potential, p, geom.volume, nodes)


def verify_bound_torus(
    potential: ScalarPotentialD,
    geom: TorusGeometry,
    gamma: float,
    n_modes=None,
    seed: int | None = None,
) -> BoundReport:
    """Check the eigenvalue-moment bound on the projected torus operator.

    lhs: gamma-moment of the Galerkin negative spectrum (lower bound);
    rhs: unit-regime-aware constant times int V^(gamma + d/2).
    """
    if n_modes is None:
        n_modes = tuple(b + 12 for b in potential.bands)
    sel = choose_betas(geom)
    const = lt_constant_bound(gamma, sel, geom.d)
    a = assemble_torus_operator(potential, geom, n_modes)
    rep = negative_spectrum(a)
    lhs = riesz_mean(rep, gamma)
    quad_nodes = _quad_nodes(potential)
    rhs = const * potential_power_integral(potential, geom, gamma + 0.5 * geom.d, quad_nodes)
    meta = {
        "operator": "torus",
        "gamma": gamma,
        "d": geom.d,
        "alphas": list(geom.alphas),
        "betas": list(sel.betas),
        "delta": sel.delta,
        "unit_regime": sel.in_unit_regime,
        "truncation": list(n_modes),
        "quadrature": list(quad_nodes),
        "negative_count": len(rep.negatives),
        "lhs_is_lower_bound": True,
    }
    if seed is not None:
        meta["seed"] = seed
    return BoundReport.build(lhs, rhs, constant_used=const, **meta)
