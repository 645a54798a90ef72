"""Orthonormal families of periodic vector functions and trace inequalities.

A family is its coefficient array: member n's coefficient of
exp(i k theta) / sqrt(2pi) in component j, in phase coordinates
theta in [0, 2pi).  The verifier fixes the period 2pi/alpha, and a family is
zero-mean when every k = 0 coefficient is exactly 0.  The Gram matrix, the
L2 norms and the kinetic quadratic forms are exact finite sums (Parseval).
The density U(x,x) = sum_n phi_n(x) phi_n(x)^H is V = W W^H for the
coefficient blocks W_k = sqrt(alpha/2pi) * (component x member).  Tr V^3 is
a trigonometric polynomial of degree 6b, integrated exactly on 6b + 1 nodes.

The verifiers check

    int Tr[U(x,x)^3] dx <= K^2 * sum_n sum_j (kinetic form of member n,j)

with K = K1(beta) for the (+ a^2 beta) form and K = K2(beta) for the
zero-mean (- beta) form.  The inequalities remain valid for suborthonormal
families, so the verifiers do not insist on an exactly orthonormal input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral1d
from .reports import BoundReport
from .spectral1d import _autocorrelation, _block_eigvalsh, _form, _gaussian_draws, _seeds_of, _values_on_grid

__all__ = [
    "OrthonormalFamily",
    "random_orthonormal_family",
    "density_and_kinetic",
    "verify_trace1",
    "verify_trace2",
    "verify_interpolation",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OrthonormalFamily:
    """coeffs[n, k+band, j] is member n's coefficient of mode k, component j;
    shape (n_members, 2*band+1, m_dim)."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] % 2 == 0:
            raise ValueError(f"coeffs shape {self.coeffs.shape} is not (n_members, 2b+1, m_dim)")


# The functions below work on several families of one shape at once, one
# per seed of a CLI batch, as one stack of coefficients (S, n_members,
# 2*band+1, m_dim), and give per-family results in stack order, each
# bitwise the family's result alone on a stack of one.


def _gram_defect(coeffs: np.ndarray) -> np.ndarray:
    flat = coeffs.reshape(*coeffs.shape[:2], math.prod(coeffs.shape[2:]))
    gram = flat @ flat.conj().swapaxes(-1, -2)
    return np.max(np.abs(gram - np.eye(coeffs.shape[1])), axis=(1, 2), initial=0.0)


def _check_entries(n_members: int, m_dim: int, band: int) -> None:
    # The density's FFT pads a family to (4b+1) m n_members entries, more than a
    # random draw's capacity x n_members, and its blocks take (4b+1) m^2.
    if (4 * band + 1) * m_dim * max(n_members, m_dim) > spectral1d.ROW_BUDGET**2:
        raise ValueError(f"a family of {n_members} members exceeds the dense budget")


def random_orthonormal_family(n_members: int, m_dim: int, band: int, zero_mean: bool, seeds) -> list:
    """Random orthonormal families, one per seed and deterministic per seed:
    Gaussian coefficients orthonormalized by QR in coefficient space, drawn
    as one stack.

    With zero_mean the k = 0 coefficients are excluded from the working
    space, so they come out exactly zero.  A rank-deficient draw (numerically
    impossible, but cheap to guard) raises RuntimeError.
    """
    capacity = m_dim * (2 * band if zero_mean else 2 * band + 1)
    if n_members < 0 or n_members > capacity:
        raise ValueError(f"cannot fit {n_members} orthonormal members in dimension {capacity}")
    _check_entries(n_members, m_dim, band)
    keep = np.ones(2 * band + 1, dtype=bool)
    if zero_mean:
        keep[band] = False
    q, r = np.linalg.qr(_gaussian_draws((capacity, n_members), seeds))
    if not np.all(np.min(np.abs(np.diagonal(r, axis1=-2, axis2=-1)), axis=-1, initial=np.inf) > 1e-10):
        raise RuntimeError("rank-deficient draw")
    coeffs = np.zeros((len(seeds), n_members, 2 * band + 1, m_dim), dtype=complex)
    coeffs[:, :, keep, :] = q.swapaxes(-1, -2).reshape(len(seeds), n_members, int(keep.sum()), m_dim)
    for defect in _gram_defect(coeffs):
        if defect > 1e-12:
            raise AssertionError(f"Gram defect {defect:.3e} exceeds 1e-12")
    return [OrthonormalFamily(c) for c in coeffs]


def density_and_kinetic(families, beta: float, mode: str, alpha: float = 1.0) -> tuple:
    """(integral of Tr[U(x,x)^3] over the period 2pi/alpha, kinetic form) of
    each family of one shape: an array of integrals and a list of forms.

    Both are exact sums: the kinetic form by Parseval, the integral as the
    rectangle rule on 6b + 1 nodes for the degree-6b polynomial Tr U^3.
    """
    form = _form(mode, beta, alpha)
    coeffs = np.stack([fam.coeffs for fam in families])
    n_members, width, m_dim = coeffs.shape[1:]
    band = (width - 1) // 2
    if form.projected and np.any(coeffs[:, :, band, :]):
        raise ValueError("the mass-subtracted form needs a zero-mean family")
    _check_entries(n_members, m_dim, band)
    density = _autocorrelation(math.sqrt(alpha / TWO_PI) * np.moveaxis(coeffs, 1, -1))
    # Tr V^3 is the sum of V's cubed eigenvalues at each of the 6b + 1 nodes
    # (no clipping: it is exact).  An overflow gives a non-finite lhs, which
    # BoundReport rejects.
    evs = _block_eigvalsh(_values_on_grid(density, (6 * band + 1,)))
    with np.errstate(over="ignore"):
        lhs = TWO_PI / alpha / evs.shape[1] * np.sum(evs**3, axis=(1, 2))
    # Each family's kinetic form is its own sum, in the order of a family alone.
    weights, squares = form.weights(band), np.abs(coeffs) ** 2
    return lhs, [float(np.einsum("k,nkj->", weights, square).real) for square in squares]


def _verify_trace(families, beta, mode, params, seeds) -> list:
    # Shared body of the trace verifiers for families of one shape and their
    # seeds; params (alpha for the add form) reach the form, the density and
    # the metadata.
    seeds = _seeds_of(families, seeds)
    lhs, kinetic = density_and_kinetic(families, beta, mode, **params)
    k_const = _form(mode, beta, **params).k
    n_members, width, m_dim = families[0].coeffs.shape
    meta = {
        "kind": f"trace_{mode}",
        "beta": beta,
        **params,
        "n_members": n_members,
        "m_dim": m_dim,
        "band": (width - 1) // 2,
    }
    reports = []
    for value, kin, seed in zip(lhs, kinetic, seeds):
        seeded = meta if seed is None else {**meta, "seed": seed}
        reports.append(BoundReport.build(float(value), k_const**2 * kin, constant_used=k_const**2, **seeded))
    return reports


def verify_trace1(families, alpha: float, beta: float, seeds=None) -> list:
    """Cubed-density trace bound with the mass-added kinetic form and K1^2,
    on the period 2pi/alpha: one BoundReport per family (of one shape) and
    its seed, which adds a "seed" field unless None."""
    return _verify_trace(families, beta, "add", {"alpha": alpha}, seeds)


def verify_trace2(families, beta: float, seeds=None) -> list:
    """Zero-mean mirror of :func:`verify_trace1` on period 2pi, with K2(beta)^2."""
    return _verify_trace(families, beta, "subtract", {}, seeds)


def verify_interpolation(
    coeffs: np.ndarray,
    which: str,
    beta: float,
    alpha: float = 1.0,
) -> BoundReport:
    """Single-function inequality ||u||_inf^2 <= K * sqrt(Q(u)) * sqrt(||u||^2).

    coeffs are the mode coefficients of u in the orthonormal exponential
    basis, length 2*band+1.  The sup norm is taken from a dense grid of
    |u|^2 plus one Newton step at the best node, which slightly
    under-estimates the true sup; Q is the mode-weighted quadratic form,
    exact by Parseval.  Complex u is allowed (the inequality survives the
    real/imaginary split).
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or len(c) % 2 == 0:
        raise ValueError("coeffs must be a 1D array of odd length")
    band = (len(c) - 1) // 2
    form = _form(which, beta, alpha)
    if form.projected and abs(c[band]) > 1e-12 * max(1.0, float(np.linalg.norm(c))):
        raise ValueError("the mass-subtracted form needs a zero-mean function")
    k_const = form.k
    ks = np.arange(-band, band + 1, dtype=float)

    period = TWO_PI / alpha
    n = 16 * (2 * band + 1)
    x = np.arange(n) * (period / n)
    basis = math.sqrt(alpha / TWO_PI)
    # u, u' and u'' on the grid, as one stack of 1x1 potentials
    derivatives = np.stack((c, 1j * alpha * ks * c, -((alpha * ks) ** 2) * c))
    u, du, d2u = basis * _values_on_grid(derivatives[:, :, None, None], (n,))[:, :, 0, 0]
    q = np.abs(u) ** 2
    i0 = int(np.argmax(q))
    sup2 = float(q[i0])

    # one Newton step on |u|^2 at the best node
    g1 = 2.0 * float((u[i0].conjugate() * du[i0]).real)
    g2 = 2.0 * float((np.abs(du[i0]) ** 2 + (u[i0].conjugate() * d2u[i0]).real))
    if g2 < 0.0:
        step = -g1 / g2
        if abs(step) <= period / n:
            xr = x[i0] + step
            ur = basis * np.exp(1j * alpha * xr * ks) @ c
            sup2 = max(sup2, float(np.abs(ur) ** 2))

    norm2 = float(np.sum(np.abs(c) ** 2))
    quad_form = float(np.sum(form.weights(band) * np.abs(c) ** 2))
    rhs = k_const * math.sqrt(max(quad_form, 0.0)) * math.sqrt(norm2)
    return BoundReport.build(
        sup2,
        rhs,
        constant_used=k_const,
        kind=f"interpolation_{which}",
        beta=beta,
        alpha=alpha,
        band=band,
        grid=n,
        lhs_is_lower_bound=True,
    )
