"""Fourier-Galerkin spectra of 1D periodic operators with matrix potentials.

Two operator families are discretized in the orthonormal exponential basis
on one period:

  * mass-added:      -d^2/dx^2 + a^2 b - V(x)         on L2(0, 2pi/a),
  * mass-subtracted: -d^2/dx^2 - delta - P V P        on the zero-mean
    subspace of L2(0, 2pi), P removing the mean.

V is a band-limited Hermitian, pointwise-PSD matrix function.  Because the
basis restriction is a Rayleigh-Ritz projection, every computed Riesz mean
of the negative spectrum is a lower bound on the true one, so a verified
inequality can only fail when the continuum inequality actually fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import interp, special
from .reports import BoundReport, _check_doubling

__all__ = [
    "MatrixPotential",
    "EigenReport",
    "constant_potential",
    "random_psd_potential",
    "trace_power_integral",
    "assemble_h1",
    "assemble_h2",
    "negative_spectrum",
    "riesz_mean",
    "verify_bound_h1",
    "verify_bound_h2",
    "ROW_BUDGET",
]

_PSD_TOL = 1e-10
_PSD_SAMPLES = 512
_EIG_CUT_REL = 1e-12
# Largest dense Galerkin matrix (rows = modes * m_dim) any assembler builds:
# 10,000 complex rows are 1.6 GB, and the eigensolver roughly doubles that.
ROW_BUDGET = 10_000


@dataclass(frozen=True)
class MatrixPotential:
    """Band-limited Hermitian matrix potential stored as Fourier coefficients.

    coeffs has shape (2*band+1, m_dim, m_dim); row k+band holds the
    coefficient of exp(i*k*(2pi/period)*x).  Hermitian symmetry
    coeffs[-k] = coeffs[k]^H (k = 0 included) is checked exactly on
    construction, which makes V(x) pointwise Hermitian and every Galerkin
    matrix exactly self-adjoint.
    """

    m_dim: int
    band: int
    period: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (2 * self.band + 1, self.m_dim, self.m_dim)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != {expected}")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not np.array_equal(self.coeffs[::-1], self.coeffs.conj().transpose(0, 2, 1)):
            raise ValueError("coefficients are not exactly adjoint pairs coeffs[-k] = coeffs[k]^H")

    def coeff(self, k: int) -> np.ndarray:
        if abs(k) > self.band:
            return np.zeros((self.m_dim, self.m_dim), dtype=complex)
        return self.coeffs[k + self.band]

    @property
    def alpha(self) -> float:
        return 2.0 * math.pi / self.period

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Pointwise values V(x_i); returns shape (len(x), m_dim, m_dim)."""
        ks = np.arange(-self.band, self.band + 1)
        phases = np.exp(1j * self.alpha * np.outer(np.asarray(x, float), ks))
        return np.einsum("nm,mij->nij", phases, self.coeffs)

    def validate(self) -> None:
        """Assert pointwise positive semidefiniteness on a sample grid."""
        x = np.arange(_PSD_SAMPLES) * (self.period / _PSD_SAMPLES)
        vals = self.evaluate(x)
        evs = np.linalg.eigvalsh(vals)
        scale = max(1.0, float(np.max(np.abs(evs))))
        if float(np.min(evs)) < -_PSD_TOL * scale:
            raise ValueError("potential is not pointwise PSD on the sample grid")
        tr = np.einsum("nii->n", vals)
        if float(np.max(np.abs(tr.imag))) > 1e-12 * scale:
            raise ValueError("trace of V(x) is not real on the sample grid")


@dataclass(frozen=True)
class EigenReport:
    """Magnitudes of the negative eigenvalues, sorted descending."""

    negatives: tuple


def constant_potential(value: float, m_dim: int = 1, period: float = 2.0 * math.pi) -> MatrixPotential:
    """Scalar-multiple-of-identity potential V(x) = value * I."""
    if value < 0:
        raise ValueError("constant potential must be >= 0")
    coeffs = np.zeros((1, m_dim, m_dim), dtype=complex)
    coeffs[0] = value * np.eye(m_dim)
    return MatrixPotential(m_dim=m_dim, band=0, period=period, coeffs=coeffs)


def random_psd_potential(
    m_dim: int, band: int, period: float, scale: float, seed: int
) -> MatrixPotential:
    """Random pointwise-PSD potential V(x) = W(x) W(x)^H.

    W is band-limited with i.i.d. complex Gaussian coefficients of standard
    deviation `scale`; squaring doubles the band.  Deterministic per seed.
    """
    if m_dim < 1 or band < 0 or period <= 0 or scale <= 0:
        raise ValueError("invalid potential parameters")
    rng = np.random.default_rng(seed)
    shape = (2 * band + 1, m_dim, m_dim)
    w = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    out_band = 2 * band
    coeffs = np.zeros((2 * out_band + 1, m_dim, m_dim), dtype=complex)
    for m in range(0, out_band + 1):
        # V_m = sum_k W_k W_{k-m}^H over the overlapping index range
        acc = np.zeros((m_dim, m_dim), dtype=complex)
        for k in range(-band + m, band + 1):
            acc += w[k + band] @ w[k - m + band].conj().T
        if m == 0:
            acc = 0.5 * (acc + acc.conj().T)  # exact Hermitian head
            coeffs[out_band] = acc
        else:
            coeffs[out_band + m] = acc
            coeffs[out_band - m] = acc.conj().T
    pot = MatrixPotential(m_dim=m_dim, band=out_band, period=period, coeffs=coeffs)
    pot.validate()
    return pot


def trace_power_integral(potential: MatrixPotential, p: float, grid: int | None = None) -> float:
    """Quadrature of Tr[V(x)^p] over one period.

    Uniform nodes (rectangle rule, spectrally accurate for smooth periodic
    integrands); the matrix power goes through a Hermitian eigendecomposition
    with round-off negatives clipped to zero.  The grid is then doubled: a
    relative drift above 1e-8 raises ConvergenceError, and otherwise the
    refined value is returned.
    """
    if p < 1:
        raise ValueError("power p must be >= 1")
    min_grid = 4 * (2 * potential.band + 1)
    # Tr V^p is not band-limited (fractional powers kink where an eigenvalue
    # branch grazes zero); 32x oversampling keeps the doubling drift well
    # under the 1e-8 flag for the random PSD ensemble.
    n = grid if grid is not None else 32 * (2 * potential.band + 1)
    if n < min_grid:
        raise ValueError(f"grid {n} below minimum {min_grid}")

    def quad(nodes: int) -> float:
        x = np.arange(nodes) * (potential.period / nodes)
        evs = np.linalg.eigvalsh(potential.evaluate(x))
        evs = np.clip(evs, 0.0, None)
        return float(potential.period / nodes * np.sum(evs**p))

    value = quad(n)
    refined = quad(2 * n)
    _check_doubling(value, refined, "trace integral")
    return refined


def _check_rows(rows: int) -> None:
    if rows > ROW_BUDGET:
        raise ValueError(f"Galerkin size {rows} exceeds the dense budget {ROW_BUDGET} rows")


def _assemble_lattice(
    modes: np.ndarray, kinetic: np.ndarray, coeffs: np.ndarray, coupled: np.ndarray
) -> np.ndarray:
    """Galerkin matrix diag(kinetic) - V on an integer mode lattice.

    modes is (n, d) and coeffs has shape (2b_1+1, ..., 2b_d+1, m, m), so each
    mode carries an (m, m) block.  Modes i and j couple through
    coeffs[k_i - k_j] when both are flagged in `coupled` and the difference
    lies inside the coefficient box.  The scatter runs once per box offset,
    so besides the matrix it only allocates arrays of length n.
    """
    n, d = modes.shape
    m = coeffs.shape[-1]
    _check_rows(n * m)
    widths = np.array(coeffs.shape[:d])
    a = np.diag(np.repeat(kinetic, m).astype(complex))
    blocks = a.reshape(n, m, n, m)  # view: blocks[i, :, j, :] couples mode i to mode j
    # row of each coupled mode in a table over the modes' bounding box, padded
    # by the band so that every partner k_i - dk indexes inside it; -1 elsewhere
    rows = np.flatnonzero(coupled)
    bands = (widths - 1) // 2
    low = modes.min(axis=0, initial=0) - bands
    row_of = np.full(tuple(modes.max(axis=0, initial=0) - low + bands + 1), -1, np.intp)
    row_of[tuple((modes[rows] - low).T)] = rows
    for offset in np.ndindex(*widths):
        j = row_of[tuple((modes[rows] - low - (np.array(offset) - bands)).T)]
        blocks[rows[j >= 0], :, j[j >= 0], :] -= coeffs[offset]
    return a


def assemble_h1(potential: MatrixPotential, alpha: float, beta: float, n_max: int) -> np.ndarray:
    """Galerkin matrix of the mass-added operator on modes |k| <= n_max."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if abs(potential.period - 2.0 * math.pi / alpha) > 1e-9 * potential.period:
        raise ValueError("potential period does not match 2*pi/alpha")
    if n_max < potential.band:
        raise ValueError("truncation must cover the potential band")
    ks = np.arange(-n_max, n_max + 1)
    kinetic = alpha * alpha * (ks.astype(float) ** 2 + beta)
    return _assemble_lattice(ks[:, None], kinetic, potential.coeffs, np.ones(len(ks), bool))


def assemble_h2(potential: MatrixPotential, delta: float, n_max: int) -> np.ndarray:
    """Galerkin matrix of the mass-subtracted operator on zero-mean modes.

    The projected potential P V P coincides with V on the k != 0 span, so
    the basis simply omits k = 0.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if abs(potential.period - 2.0 * math.pi) > 1e-9 * potential.period:
        raise ValueError("mass-subtracted operator lives on period 2*pi")
    if n_max < 1:
        raise ValueError("need at least one mode pair")
    ks = np.concatenate([np.arange(-n_max, 0), np.arange(1, n_max + 1)])
    kinetic = ks.astype(float) ** 2 - delta
    return _assemble_lattice(ks[:, None], kinetic, potential.coeffs, np.ones(len(ks), bool))


def negative_spectrum(matrix: np.ndarray) -> EigenReport:
    """Magnitudes of eigenvalues below -cut, cut = 1e-12 * max|A|, descending."""
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    evs = np.linalg.eigvalsh(matrix)
    cut = _EIG_CUT_REL * float(np.max(np.abs(matrix))) if matrix.size else 0.0
    neg = np.sort(-evs[evs < -cut])[::-1]
    return EigenReport(negatives=tuple(float(v) for v in neg))


def riesz_mean(report: EigenReport, gamma: float) -> float:
    """Sum of |negative eigenvalue|^gamma; 0 for an empty spectrum."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if not report.negatives:
        return 0.0
    return float(np.sum(np.asarray(report.negatives) ** gamma))


def _verify_1d(potential, rep, k_value, gamma, grid, seed, **params) -> BoundReport:
    # Shared tail of the h1/h2 verifiers: Riesz mean of rep against the
    # (pi/sqrt3) K L_cl trace bound, K = k_value; params join the metadata.
    lhs = riesz_mean(rep, gamma)
    const = math.pi / math.sqrt(3.0) * k_value * special.semiclassical_constant(gamma, 1)
    quad_grid = grid if grid is not None else 32 * (2 * potential.band + 1)
    rhs = const * trace_power_integral(potential, gamma + 0.5, quad_grid)
    meta = {
        "gamma": gamma,
        **params,
        "quadrature": quad_grid,
        "m_dim": potential.m_dim,
        "band": potential.band,
        "negative_count": len(rep.negatives),
        "lhs_is_lower_bound": True,
    }
    if seed is not None:
        meta["seed"] = seed
    return BoundReport.build(lhs, rhs, constant_used=const, **meta)


def verify_bound_h1(
    potential: MatrixPotential,
    alpha: float,
    beta: float,
    gamma: float,
    n_max: int | None = None,
    grid: int | None = None,
    seed: int | None = None,
) -> BoundReport:
    """Check the Riesz-mean bound for the mass-added operator.

    lhs: gamma-moment of the Galerkin negative spectrum (a lower bound on
    the continuum moment).  rhs: (pi/sqrt3) K1(beta) L_cl(gamma,1) times the
    trace integral of V^(gamma+1/2).
    """
    n = n_max if n_max is not None else potential.band + 32
    a = assemble_h1(potential, alpha, beta, n)
    rep = negative_spectrum(a)
    return _verify_1d(
        potential, rep, interp.k1(beta).value, gamma, grid, seed,
        operator="h1", alpha=alpha, beta=beta, truncation=n,
    )


def verify_bound_h2(
    potential: MatrixPotential,
    delta: float,
    gamma: float,
    n_max: int | None = None,
    grid: int | None = None,
    seed: int | None = None,
) -> BoundReport:
    """Mass-subtracted mirror of :func:`verify_bound_h1`, with K2(delta)."""
    n = n_max if n_max is not None else potential.band + 32
    a = assemble_h2(potential, delta, n)
    rep = negative_spectrum(a)
    return _verify_1d(
        potential, rep, interp.k2(delta).value, gamma, grid, seed,
        operator="h2", delta=delta, truncation=n,
    )
