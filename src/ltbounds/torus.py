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

from . import interp
from .spectral1d import MatrixPotential, _check_gamma, _lattice_operator, _power_integral, _psd_coeffs, _seeds_of
# negative_spectrum stays bound here, unused, because bench/worker.py wraps torus.negative_spectrum
from .spectral1d import _validate, _verify_lattice, negative_spectrum  # noqa: F401

__all__ = [
    "TorusGeometry",
    "BetaSelection",
    "ScalarPotentialD",
    "choose_betas",
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
        if any(not v > 0 for v in a):
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
    unit = delta <= interp.beta_star_star(_THRESHOLD_TOL) - _THRESHOLD_TOL
    if delta >= _DELTA_CAP:  # outside the unit regime, which ends below beta_star_star
        beta, delta = _DELTA_CAP / delta * beta, _DELTA_CAP
    factor = 1.0 if unit else interp.k1(beta).value ** (geom.d - 1) * interp.k2(delta).value
    return BetaSelection(betas=(beta,) * (geom.d - 1), delta=delta, constant_factor=factor, in_unit_regime=unit)


class ScalarPotentialD(MatrixPotential):
    """Real scalar potential on the d-torus: a MatrixPotential with 1x1
    blocks, whose exact adjoint pairing makes V real."""

    def __post_init__(self):
        super().__post_init__()
        if self.m_dim != 1:
            raise ValueError("a torus potential has 1x1 coefficient blocks")

    @classmethod
    def random(cls, d: int, band: int, scale: float, seeds=None, *, seed: int | None = None) -> list:
        """Random potentials V = |w|^2 for band-limited w, one per seed and
        deterministic per seed, drawn and validated as one stack; V's band
        is 2 * band.  seed=s, the single-seed spelling that the benchmark's
        wrapper test still calls, is seeds=[s]."""
        coeffs = _psd_coeffs(d, 1, band, scale, seeds if seed is None else [seed])
        potentials = [cls(c) for c in coeffs]
        _validate(coeffs)
        return potentials


def _check_dimension(potential: ScalarPotentialD, geom: TorusGeometry) -> None:
    if potential.d != geom.d:
        raise ValueError(f"a {potential.d}-dimensional potential on a {geom.d}-torus")


def assemble_torus_operator(potential: ScalarPotentialD, geom: TorusGeometry, n_modes) -> np.ndarray:
    """Real symmetric Galerkin matrix of -Laplacian - P V P.

    The basis spans the range of the mean-removing projection: the modes of
    the box |k_j| <= n_j with k_d != 0.  Each k of the lexicographically
    negative half, in meshgrid "ij" order, is paired with -k: row i is the
    cosine mode (e_k + e_-k)/sqrt2 and row n/2 + i the sine mode
    -i(e_k - e_-k)/sqrt2 (see spectral1d._lattice_plan).  The array is
    the caller's: no later call writes to it.
    """
    _check_dimension(potential, geom)
    return _lattice_operator(potential, geom.alphas, 0.0, n_modes, projected=True)[0]


def _quad_nodes(potential: ScalarPotentialD) -> list:
    # V^p kinks where V = 0: at gamma = 1.1, 8 nodes per mode drifted 1.6e-8
    return [16 * (2 * b + 1) for b in potential.bands]


def potential_power_integral(potential: ScalarPotentialD, geom: TorusGeometry, p: float) -> float:
    """Integral of V_+^p over the torus: the tensor rectangle rule on 16
    nodes per mode per axis, refined by doubling."""
    _check_dimension(potential, geom)
    return float(_power_integral(potential.coeffs[None], p, geom.volume, _quad_nodes(potential))[0])


def _default_modes(bands) -> tuple:
    """The default truncation |k_j| <= b_j + 12 of a potential with bands b_j."""
    return tuple(b + 12 for b in bands)


def verify_bound_torus(potentials, geom: TorusGeometry, gamma: float, n_modes=None, seeds=None) -> list:
    """Check the eigenvalue-moment bound on the projected torus operator:
    one BoundReport per potential (bands may differ), with seeds as in
    verify_bound_h1, through the h1/h2 loop (spectral1d._verify_lattice).

    lhs: gamma-moment of the Galerkin negative spectrum (lower bound) on the
    one truncation n_modes, by default |k_j| <= b_j + 12; no lhs_upper, which
    would cost a second eigensolve.  rhs: unit-regime-aware constant times
    int V^(gamma + d/2), integrated after the eigensolve (one n x n array)."""
    seeds = _seeds_of(potentials, seeds)
    _check_gamma(gamma)
    for potential in potentials:
        _check_dimension(potential, geom)
    sel = choose_betas(geom)
    integrals = (potential_power_integral(potential, geom, gamma + 0.5 * geom.d) for potential in potentials)
    ladders = [[list(_default_modes(potential.bands) if n_modes is None else n_modes)] for potential in potentials]
    return _verify_lattice(potentials, seeds, integrals, [None] * len(potentials), ladders, _quad_nodes,
                           gamma, sel.constant_factor, geom.alphas, 0.0, True,
                           operator="torus", d=geom.d, alphas=list(geom.alphas), betas=list(sel.betas),
                           delta=sel.delta, unit_regime=sel.in_unit_regime)
