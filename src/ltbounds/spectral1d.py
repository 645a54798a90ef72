"""Fourier-Galerkin spectra of periodic operators with matrix potentials.

One lattice operator, -sum_j alpha_j^2 d_j^2 + mass - V on the modes
|k_j| <= n_j, optionally projected onto the modes with k_d != 0, covers
every verifier.  Each is one _Form (alphas, mass, projection, K factor),
whose enclosure calls the one builder, _lattice_operator:

  * mass-added h1:       -d^2/dx^2 + a^2 b - V(x)   on L2(0, 2pi/a),
  * mass-subtracted h2:  -d^2/dx^2 - delta - P V P  on the zero-mean
    subspace of L2(0, 2pi), P removing the mean,
  * the torus operator:  -Laplacian - P V P, P removing the mean along the
    shortest coordinate (see the torus module).

V is a band-limited Hermitian, pointwise-PSD matrix function.  Because the
basis restriction is a Rayleigh-Ritz projection, every computed Riesz mean
of the negative spectrum is a lower bound on the true one, so a verified
inequality can only fail when the continuum inequality actually fails.  On
the box and a ring of modes around it the builder also gives an upper
matrix: a Schur complement on the ring, whose Riesz mean bounds the true
one from above.  One verifier loop (_verify_lattice) takes any _Form: by
default the 1D verifiers take the smallest truncation of a short ladder at
which the two bounds agree to 1e-12 relative; the torus solves one
truncation, from below only.  The index work runs once per shape (_lattice_plan).

The basis is the exponentials exp(i k.theta), except for a scalar V on a
projected operator (the torus and scalar h2).  Such a V is real, and the
projected mode set is symmetric under k -> -k without k = 0, so each k is
paired with -k into a cosine and a sine mode.  The Galerkin matrix is then
real symmetric with the same spectrum: half the memory, and a dense
eigensolve about four times faster than the complex Hermitian one.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from . import interp, special
from .reports import BoundReport, _check_doubling

__all__ = [
    "MatrixPotential",
    "EigenReport",
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
# 1D rhs quadrature nodes per mode before doubling: fractional powers kink where an
# eigenvalue branch grazes zero; 32 keep the random PSD ensemble's drift well under 1e-8.
_QUAD_PER_MODE = 32
_EIG_CUT_REL = 1e-12
# Index plans kept per process (see _lattice_plan): a few per 1D ladder, one per torus box
_PLAN_MEMO_SIZE = 32
# Largest dense Galerkin matrix (rows = modes * m_dim) any assembler builds:
# 10,000 complex rows are 1.6 GB, and the eigensolver roughly doubles that.
# A real cos/sin row costs half: it is scattered in place, with no complex
# matrix alongside, so 0.8 GB at the budget.
ROW_BUDGET = 10_000
# The default 1D truncations climb to b + _TOP_MARGIN and stop where the two
# sides of the enclosure agree to _GAP_REL relative (see _Form.truncations).
_TOP_MARGIN = 32
_GAP_REL = 1e-12
# Per thread, the last verifier rung's lower matrix, refilled by the next of its shape: no fresh page faults
_spare = threading.local()


@dataclass(frozen=True)
class MatrixPotential:
    """Band-limited Hermitian matrix potential on an integer mode lattice.

    coeffs has shape (2*b_1+1, ..., 2*b_d+1, m, m); the block at k + b is the
    coefficient of exp(i k.theta) in phase coordinates theta in [0, 2pi)^d.
    The operator fixes the physical periods.  Hermitian symmetry
    coeffs[-k] = coeffs[k]^H (k = 0 included) is checked exactly on
    construction, which makes V pointwise Hermitian and every Galerkin
    matrix exactly self-adjoint.
    """

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("potential coefficients must be finite")
        # a non-square (m, m) block fails the pairing check below
        if self.d < 1 or any(w % 2 == 0 for w in self.coeffs.shape[:-2]):
            raise ValueError(f"coeffs shape {self.coeffs.shape} is not (2b_1+1, ..., 2b_d+1, m, m)")
        lattice = tuple(range(self.d))
        if not np.array_equal(np.flip(self.coeffs, lattice), self.coeffs.conj().swapaxes(-1, -2)):
            raise ValueError("coefficients are not exactly adjoint pairs coeffs[-k] = coeffs[k]^H")

    @property
    def d(self) -> int:
        return self.coeffs.ndim - 2

    @property
    def bands(self) -> tuple:
        return tuple((w - 1) // 2 for w in self.coeffs.shape[:-2])

    @property
    def m_dim(self) -> int:
        return self.coeffs.shape[-1]


# The stacked layers below take coefficient arrays with a leading stack axis,
# one entry per potential (one per seed of a CLI batch), shape
# (S, 2b_1+1, ..., 2b_d+1, m, m), and give per-entry results in stack order.
# An entry's result is bitwise the one it gets alone on a stack of one, and
# where a check fails for several entries, the lowest of them raises.


def _values_on_grid(coeffs: np.ndarray, nodes) -> np.ndarray:
    """Each potential's values on the phase grid of nodes[j] points per axis; shape (S, *nodes, m, m).

    Axis by axis, sum_k c_k exp(2 pi i k j / n) at the n >= 2b+1 nodes is the
    unnormalised inverse FFT of the c_k placed at index k mod n.  Each
    transform runs along a contiguous last axis, one per potential, so an
    entry's values are bitwise those it gets alone on a stack of one.
    """
    if any(n < w for n, w in zip(nodes, coeffs.shape[1:-2])):
        raise ValueError(f"a grid needs 2b+1 nodes per axis, got {tuple(nodes)} for widths {coeffs.shape[1:-2]}")
    if math.prod(nodes) * coeffs.shape[-1] ** 2 > ROW_BUDGET**2:  # no more entries than the largest matrix
        raise ValueError(f"a grid of {math.prod(nodes)} nodes exceeds the dense budget")
    out = np.moveaxis(coeffs, (-2, -1), (1, 2))  # (S, m, m, lattice axes)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected as a non-finite side
        for n in nodes:  # axis 3 is the first axis still in coefficients; it leaves as the last
            lattice = np.moveaxis(out, 3, -1)
            *rest, width = lattice.shape
            b = width // 2
            padded = np.zeros((*rest, n), complex)
            padded[..., :b + 1] = lattice[..., b:]
            padded[..., n - b:] = lattice[..., :b]
            out = np.fft.ifft(padded, axis=-1, norm="forward")
    return np.moveaxis(out, (1, 2), (-2, -1))


def _psd_grid(widths) -> list:
    """The PSD sample grid of coefficients of `widths`: max(ceil(512^(1/d)), 4 nodes per mode) per axis."""
    per_axis = math.ceil(_PSD_SAMPLES ** (1.0 / len(widths)))
    return [max(per_axis, 4 * w) for w in widths]


def _validate(coeffs: np.ndarray) -> None:
    """Assert finite, pointwise positive semidefinite values for each
    potential of the stack on its _psd_grid, as one _values_on_grid."""
    values = _values_on_grid(coeffs, _psd_grid(coeffs.shape[1:-2]))
    # An overflowed grid holds inf and NaN, which pass every comparison
    # below.  Every bound side integrates V, so this is the error the CLI
    # reports for any input that overflows.  The potentials below the first
    # such grid are checked for semidefiniteness first.
    finite = np.all(np.isfinite(values), axis=tuple(range(1, values.ndim)))
    below = len(finite) if finite.all() else int(np.argmin(finite))
    evs = _block_eigvalsh(values[:below])
    cells = tuple(range(1, evs.ndim))
    scale = np.max(np.abs(evs), axis=cells, initial=1.0)
    if np.any(np.min(evs, axis=cells, initial=0.0) < -_PSD_TOL * scale):
        raise ValueError("potential is not pointwise PSD on the sample grid")
    if not finite.all():
        raise ValueError("bound sides must be finite: the potential overflows on its sample grid")


@dataclass(frozen=True)
class EigenReport:
    """Magnitudes of the negative eigenvalues, sorted descending."""

    negatives: np.ndarray


def _psd_coeffs(d: int, m_dim: int, band: int, scale: float, seeds) -> np.ndarray:
    """The stack of coefficients of a random V = W W^H on the d-dimensional
    lattice, one per seed: W has band `band` per axis and i.i.d. complex
    Gaussian (m_dim, m_dim) coefficient blocks of standard deviation `scale`."""
    _check_psd_params(d, m_dim, band, scale)
    shape = (2 * band + 1,) * d + (m_dim, m_dim)
    return _autocorrelation(scale * _gaussian_draws(shape, seeds) / math.sqrt(2.0))


def _gaussian_draws(shape: tuple, seeds) -> np.ndarray:
    """Per seed, stacked: its first standard normal draw of `shape` plus 1j times its second."""
    draws = np.empty((2, len(seeds), *shape))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        draws[0, i], draws[1, i] = rng.standard_normal(shape), rng.standard_normal(shape)
    return draws[0] + 1j * draws[1]


def _check_psd_params(d: int, m_dim: int, band: int, scale: float) -> None:
    """Reject the parameters of :func:`_psd_coeffs` before it does any work."""
    if d < 1 or m_dim < 1 or band < 0 or not scale > 0:
        raise ValueError("invalid potential parameters")
    # V's band 2*band needs a Galerkin matrix within the row budget; rejected before V's grid is built
    _check_rows((2 * band,) * d, m_dim, projected=band > 0)


def _autocorrelation(w: np.ndarray) -> np.ndarray:
    """Coefficients V_m = sum_k W_k W_{k-m}^H of V = W W^H, for each W of a stack.

    w has shape (S, 2*b_1+1, ..., 2*b_d+1, m, r) with r >= 0; each V has
    bands 2*b_j and (m, m) blocks.  V is c^2 times the inverse FFT of F F^H,
    with F the FFT of W / c zero-padded to V's box (so no offset wraps
    around) and c the largest entry of that W, so only the product by c^2
    can overflow.  Averaging with the flipped adjoint makes
    MatrixPotential's pairing V_-m = V_m^H exact.
    """
    lattice = tuple(range(1, w.ndim - 2))
    c = np.max(np.abs(w), axis=tuple(range(1, w.ndim)), keepdims=True, initial=0.0)
    c[c == 0.0] = 1.0  # an empty or zero W stays zero
    f = np.fft.fftn(w / c, s=[2 * n - 1 for n in w.shape[1:-2]], axes=lattice)
    with np.errstate(over="ignore", invalid="ignore"):  # MatrixPotential rejects an overflow
        v = c * c * np.fft.fftshift(np.fft.ifftn(f @ f.conj().swapaxes(-1, -2), axes=lattice), axes=lattice)
        return 0.5 * (v + np.flip(v, lattice).conj().swapaxes(-1, -2))


def _block_eigvalsh(values: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a grid of Hermitian (m, m) blocks, shape (..., m).

    Like np.linalg.eigvalsh, it reads the lower triangle and ignores the
    diagonal's imaginary parts, but 1x1 and 2x2 blocks take a closed form
    instead of one LAPACK call per block: a 1x1 block is its real diagonal
    (what eigvalsh returns), and [[a, conj(b)], [b, d]] has the eigenvalues
    (a + d)/2 -+ hypot((a - d)/2, |b|).  The diagonal is halved before it
    is summed and the radius goes through hypot, so a block overflows no
    sooner than under eigvalsh.
    """
    m = values.shape[-1]
    if m == 1:
        return values[..., 0, :].real
    if m != 2:  # empty blocks included
        return np.linalg.eigvalsh(values)
    a, d = values[..., 0, 0].real * 0.5, values[..., 1, 1].real * 0.5
    mean, radius = a + d, np.hypot(a - d, np.abs(values[..., 1, 0]))
    return np.stack((mean - radius, mean + radius), axis=-1)


def _power_integral(coeffs: np.ndarray, p: float, volume: float, nodes) -> np.ndarray:
    """Rectangle rule for the integral of Tr V_+^p over a cell of `volume`,
    for each potential of the stack `coeffs`.

    The pointwise spectra come from :func:`_block_eigvalsh`, so the 1x1 and
    2x2 blocks of the torus and of the default 1D potentials cost no LAPACK
    call.  Negative eigenvalues of V are clipped to zero.
    Tr V_+^p is not band-limited for fractional p, so the grid (at least 4
    nodes per mode on every axis) is doubled: a relative drift above 1e-8
    raises ConvergenceError, and otherwise the refined value is returned.
    V is evaluated once, by the inverse FFTs of _values_on_grid on the
    doubled grid: node 2j of the 2n-node axis is node j of the n-node axis,
    2 pi j / n, so the coarse rule sums every second node of that one
    refined evaluation.
    """
    if p < 1:
        raise ValueError("power p must be >= 1")
    nodes = tuple(int(n) for n in nodes)
    minimum = tuple(4 * w for w in coeffs.shape[1:-2])
    if len(nodes) != len(minimum) or any(n < lo for n, lo in zip(nodes, minimum)):
        raise ValueError(f"grid {nodes} below minimum {minimum}")

    fine = tuple(2 * n for n in nodes)
    evs = np.clip(_block_eigvalsh(_values_on_grid(coeffs, fine)), 0.0, None)
    cells = tuple(range(1, evs.ndim))
    with np.errstate(over="ignore"):  # an overflow is rejected as a non-finite side
        powers = evs**p
        coarse = powers[(slice(None),) + (slice(None, None, 2),) * len(nodes)]  # every second node per axis
        values = volume / math.prod(nodes) * np.sum(coarse, axis=cells)
        refined = volume / math.prod(fine) * np.sum(powers, axis=cells)
    for value, fine_value in zip(values, refined):
        _check_doubling(float(value), float(fine_value), "power integral")
    return refined


def random_psd_potential(m_dim: int, band: int, scale: float, seeds) -> list:
    """Random pointwise-PSD 1D potentials V = W W^H, one per seed and
    deterministic per seed, drawn and validated as one stack; W has band
    `band` and coefficient standard deviation `scale`."""
    coeffs = _psd_coeffs(1, m_dim, band, scale, seeds)
    potentials = [MatrixPotential(c) for c in coeffs]
    _validate(coeffs)
    return potentials


def _quad_grid_1d(potential: MatrixPotential) -> int:
    return _QUAD_PER_MODE * (2 * potential.bands[0] + 1)


def trace_power_integral(potentials, p: float, period: float) -> np.ndarray:
    """Integral of Tr V_+^p over one period of each 1D potential of one
    shape, on 32 nodes per mode refined by doubling, as one stack."""
    coeffs = np.stack([potential.coeffs for potential in potentials])
    return _power_integral(coeffs, p, period, (_quad_grid_1d(potentials[0]),))


def _check_rows(n_modes, m_dim: int, projected: bool) -> None:
    """Reject a Galerkin matrix on |k_j| <= n_j (k_d != 0 if projected) over
    ROW_BUDGET rows.  The message gives the exact count while it fits a
    float; past that the product stops, since a huge d makes it slow."""
    rows = (2 * n_modes[-1] + (0 if projected else 1)) * m_dim
    for n in n_modes[:-1]:
        if rows > sys.float_info.max:
            raise ValueError(f"Galerkin size over {sys.float_info.max:.1e} exceeds the dense budget {ROW_BUDGET} rows")
        rows *= 2 * n + 1
    if rows > ROW_BUDGET:
        raise ValueError(f"Galerkin size {rows} exceeds the dense budget {ROW_BUDGET} rows")


def _kinetic(alphas, modes: np.ndarray, mass: float) -> np.ndarray:
    """The kinetic diagonal sum_j (alpha_j k_j)^2 + mass of each mode row k."""
    with np.errstate(over="ignore"):  # an overflow is rejected as a non-finite entry or side
        return np.sum((np.asarray(alphas) * modes) ** 2, axis=1) + mass


@functools.lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _lattice_plan(widths: tuple, m_dim: int, n_modes: tuple, projected: bool, upper: bool) -> tuple:
    """Read-only index arrays from which _lattice_operator builds each matrix of one shape.

    The modes are those of |k_j| <= n_j, padded by max(b_j, 1) per axis when
    `upper`, in meshgrid "ij" order without k_d = 0 when `projected`.  Modes
    i and j couple through coeffs[k_i - k_j] when the difference lies in the
    box `widths`.  The scatter over the box offsets runs here, and keeps each
    term of block A (box rows by box rows) or B (box rows by ring rows) as a
    flat entry dst and src.

    A scalar V on a projected box is real, and mode n-1-i is -(mode i).
    For k_i of the first half, i < h = n/2, row i is then the cosine
    (e_k + e_-k)/sqrt2 and row h + i the sine -i(e_k - e_-k)/sqrt2.  With
    P[i, j] = a[k_i, k_j] and Q[i, j] = a[k_i, -k_j] of the complex matrix
    a, the rows hold [[Re(P + Q), Im(P - Q)], [Im(P - Q)^T, Re(P - Q)]],
    and a Q term of P - Q is a src into -V.  An entry takes at most one term
    of P, V(k_i - k_j), and one of Q, V(k_i + k_j), and _lattice_operator
    subtracts a block's terms in their order here, the zero offset's first.
    A diagonal entry is then (kinetic - V(0)) - V(2k), as in a; an entry off
    it starts at 0, where either order of its two terms rounds alike.

    Returns (box, ring, a, b), the shape checked first: the mode of each box
    and ring row, and the (2, k) int32 terms (dst, src) of A and of B, where
    k may be 0.  A plan holds 8 bytes per term, at most half the bytes of
    the complex matrix it fills or twice those of the real one; 1.2 MB on
    the default torus box.
    """
    bands = np.array([(w - 1) // 2 for w in widths])
    if len(n_modes) != len(widths):
        raise ValueError("one truncation per axis required")
    if any(n < b for n, b in zip(n_modes, bands)):
        raise ValueError("truncation must cover the potential band")
    if projected and n_modes[-1] < 1:
        raise ValueError("need at least one mode pair along the projected axis")
    padded = tuple(n + max(b, 1) for n, b in zip(n_modes, bands)) if upper else n_modes
    for shape in (n_modes, padded):  # before the (2n+1)^d box is built
        _check_rows(shape, m_dim, projected)
    mesh = np.meshgrid(*[np.arange(-n, n + 1) for n in padded], indexing="ij")
    modes = np.stack([g.ravel() for g in mesh], axis=-1)
    if projected:
        modes = modes[modes[:, -1] != 0]
    n, m, real = len(modes), m_dim, projected and m_dim == 1
    rows = n // 2 if real else n  # the modes whose rows the scatter fills: the cosine rows, or all
    # the mode of each row: the first half's cos then sin rows, or m_dim rows per mode
    row_mode = np.tile(np.arange(rows), 2) if real else np.repeat(np.arange(n), m)
    # row of each mode in a table over the modes' bounding box, padded by the
    # band so that every partner k_i - dk indexes inside it; -1 elsewhere
    low = modes.min(axis=0, initial=0) - bands
    row_of = np.full(tuple(modes.max(axis=0, initial=0) - low + bands + 1), -1, np.intp)
    row_of[tuple((modes - low).T)] = np.arange(n)
    partner = modes[:rows] - low + bands  # k_i - dk - low is partner - offset, dk = offset - bands
    inside = np.all(np.abs(modes[row_mode]) <= n_modes, axis=1)
    box, ring = np.flatnonzero(inside), np.flatnonzero(~inside)
    position = np.where(inside, np.cumsum(inside), np.cumsum(~inside)) - 1  # of each row in the box or the ring
    def terms():  # (slot, dst, src) per offset, the zero offset first: slot 0 holds A's terms, 1 B's
        p, center = np.arange(m), tuple(bands)
        for offset in sorted(np.ndindex(*widths), key=lambda offset: offset != center):
            j = row_of[tuple((partner - offset).T)]
            i = np.flatnonzero(j >= 0)
            j = j[i]
            o = np.ravel_multi_index(offset, widths)
            if real:  # src 2o is Re V(dk), 2o + 1 its Im; a Q term (partner j >= rows) reads -V
                col, re = np.minimum(j, n - 1 - j), 2 * o + np.where(j < rows, 0, 2 * math.prod(widths))
                r = np.concatenate((i, i, col + rows, i + rows))
                c = np.concatenate((col, col + rows, i, col + rows))
                src = np.concatenate((np.full(len(i), 2 * o), re + 1, re + 1, re))
            else:
                block = np.broadcast_arrays((i * m)[:, None, None] + p[:, None], (j * m)[:, None, None] + p,
                                            (o * m + p[:, None]) * m + p)
                r, c, src = (x.ravel() for x in block)
            keep = inside[r]  # the box rows
            r, c, src = r[keep], c[keep], src[keep]
            to_ring = ~inside[c]
            yield to_ring, position[r] * np.where(to_ring, len(ring), len(box)) + position[c], src

    # allocated before the second pass, whose freed temporaries then lie above them on the heap
    blocks = [np.empty((2, k), np.int32) for k in sum(np.bincount(slot, minlength=2) for slot, _, _ in terms())]
    filled = [0] * 2
    for slot, dst, src in terms():
        for k, block in enumerate(blocks):
            at = slot == k
            block[:, filled[k]:filled[k] + at.sum()] = dst[at], src[at]
            filled[k] += at.sum()
    plan = [modes[row_mode[box]], modes[row_mode[ring]], *blocks]
    for x in plan:
        x.flags.writeable = False
    return tuple(plan)


def _lattice_operator(potential: MatrixPotential, alphas, mass, n_modes, projected, s=None, out=None) -> tuple:
    """The lower and upper matrices of -sum_j alpha_j^2 d_j^2 + mass - V on the modes |k_j| <= n_j.

    The modes keep the lexicographic (meshgrid "ij") order of the box.  When
    `projected`, the k_d = 0 modes are dropped: P removes the mean along the
    last (shortest) coordinate, and P V P coincides with V on that span.  A
    projected operator with a scalar (hence real) V is built in the real
    cos/sin basis (see _lattice_plan); every other one is complex Hermitian
    on the exponentials.

    The lower matrix is the Galerkin matrix.  Without s the upper one is
    None.  Given s >= sup ||V||, the box P padded by max(b_j, 1) per axis
    adds a ring S around it, and H = [[A, B], [B^H, D]] on P and S has A,
    the Galerkin matrix bitwise.  The full operator has no coupling from P
    beyond S, and on the modes Q outside P it is at least
    D0 = diag(kinetic) - s.  When D0 is positive, [[B D0^-1 B^H, B], [B^H, D0]]
    >= 0, so the operator is at least (A - B D0^-1 B^H) + 0, and by min-max
    each of its negative eigenvalues lies at or above the matching one of
    the upper matrix A - B D0^-1 B^H: its Riesz mean bounds the continuum
    one from above.  The ring holds the lightest mode of Q, so the upper
    matrix is None exactly when that mode weighs s or less.  The padded box
    is symmetric under k -> -k, so the cos/sin rows split into box and ring
    rows too, and the real upper matrix is formed in that basis.

    Only A and B are built, each gathered from V along the memoised plan of
    the shape (see _lattice_plan); A refills `out` of A's shape and dtype.
    """
    box, ring, a_terms, b_terms = _lattice_plan(potential.coeffs.shape[:-2], potential.m_dim,
                                                tuple(int(n) for n in n_modes), projected, s is not None)
    values = np.ascontiguousarray(potential.coeffs, complex).reshape(-1)
    if projected and potential.m_dim == 1:  # the real form (V is real by its exact pairing): Re, Im of V and -V
        values = np.concatenate((values.view(float), -values.view(float)))
    fits = out is not None and (out.shape, out.dtype) == ((len(box),) * 2, values.dtype)
    a = out if fits else np.empty((len(box),) * 2, values.dtype)
    a.fill(0)
    np.fill_diagonal(a, _kinetic(alphas, box, mass))
    np.subtract.at(a.reshape(-1), a_terms[0], values[a_terms[1]])
    if s is None:
        return a, None
    kinetic = _kinetic(alphas, ring, mass)
    if not np.min(kinetic, initial=np.inf) > s:
        return a, None
    coupling = np.zeros((len(box), len(ring)), values.dtype)
    np.subtract.at(coupling.reshape(-1), b_terms[0], values[b_terms[1]])
    return a, a - (coupling / (kinetic - s)) @ coupling.conj().T


def _sup_bound(coeffs: np.ndarray) -> np.ndarray:
    """s = sum_k ||V_k||_2, an upper bound on sup_x ||V(x)||, for each
    potential of the stack.  Each spectral norm is c times the root of the
    largest eigenvalue of U^H U, U = V_k / c with c the largest entry of any
    V_k of that potential (so U^H U cannot overflow), which
    :func:`_block_eigvalsh` gives without a LAPACK call for 1x1 and 2x2 blocks."""
    c = np.max(np.abs(coeffs), axis=tuple(range(1, coeffs.ndim)), keepdims=True, initial=0.0)
    c[c == 0.0] = 1.0  # a zero V gives s = 0
    unit = coeffs / c
    largest = np.max(_block_eigvalsh(unit.conj().swapaxes(-1, -2) @ unit), axis=-1, initial=0.0)
    with np.errstate(over="ignore"):  # s = inf leaves the enclosure without an upper matrix
        return c.ravel() * np.sum(np.sqrt(largest), axis=tuple(range(1, largest.ndim)))


@dataclass(frozen=True)
class _Form:
    """A verifier's lattice operator sum_j (alpha_j k_j)^2 + mass - V on |k_j| <= n_j, only
    k_d != 0 when `projected`, and the K factor k of its bound's constant (see _lt_constant):
    alphas = (alpha,) for the 1D forms of _form, the geometry's for torus._form."""

    alphas: tuple
    mass: float
    projected: bool
    k: float

    def check(self, potential: MatrixPotential) -> None:
        if potential.d != len(self.alphas):
            raise ValueError(f"a {potential.d}-dimensional potential on a {len(self.alphas)}-dimensional lattice")

    def weights(self, band: int) -> np.ndarray:
        """The kinetic diagonal of a 1D form on the modes |k| <= band, k = 0 included."""
        return _kinetic(self.alphas, np.arange(-band, band + 1)[:, None], self.mass)

    def truncations(self, potential: MatrixPotential, s: float) -> list:
        """The default 1D truncation ladder n0 + 12, n0 + 16, ... below b + 32,
        then b + 32 itself, for a band-b potential with sup ||V|| <= s.  n0 is
        the smallest n >= b whose first mode outside |k| <= n weighs more
        than s: the first truncation with an upper bound (see _lattice_operator)."""
        b = potential.bands[0]
        top = b + _TOP_MARGIN
        above = np.flatnonzero(self.weights(top)[top + b + 1:] > s)  # k = b+1, ..., top
        n0 = b + int(above[0]) if above.size else top
        return [*range(n0 + 12, top, 4), top]

    def enclosure(self, potential: MatrixPotential, n_modes, s: float | None = None, out=None) -> tuple:
        """The Galerkin matrix of the form on the modes |k_j| <= n_j (an int
        n in 1D), and its upper matrix given s >= sup ||V|| (see _lattice_operator)."""
        self.check(potential)
        return _lattice_operator(potential, self.alphas, self.mass, np.atleast_1d(n_modes), self.projected, s, out)


def _form(which: str, beta: float, alpha: float = 1.0) -> _Form:
    """The checked mass-added form ("add": + alpha^2 beta, K1(beta)) or the
    zero-mean mass-subtracted one ("subtract": - beta on period 2pi, K2(beta))."""
    if which == "add":
        if not (alpha > 0 and beta > 0):
            raise ValueError("the mass-added form needs alpha > 0 and beta > 0")
        return _Form((alpha,), alpha * alpha * beta, False, interp.k1(beta).value)
    if which == "subtract":
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"the mass-subtracted form needs delta in [0, 1), got {beta}")
        if alpha != 1.0:
            raise ValueError("the mass-subtracted form lives on period 2*pi, alpha = 1")
        return _Form((alpha,), -beta, True, interp.k2(beta).value)
    raise ValueError(f"expected form 'add' or 'subtract', got {which!r}")


def assemble_h1(potential: MatrixPotential, alpha: float, beta: float, n_max: int) -> np.ndarray:
    """Galerkin matrix of the mass-added operator on modes |k| <= n_max."""
    return _form("add", beta, alpha).enclosure(potential, n_max)[0]


def assemble_h2(potential: MatrixPotential, delta: float, n_max: int) -> np.ndarray:
    """Galerkin matrix of the mass-subtracted operator on zero-mean modes |k| <= n_max,
    real symmetric in the cos/sin basis when the potential is scalar."""
    return _form("subtract", delta).enclosure(potential, n_max)[0]


def negative_spectrum(matrix: np.ndarray) -> EigenReport:
    """Magnitudes of eigenvalues below -cut, cut = 1e-12 * max|A|, descending."""
    scale = float(np.max(np.abs(matrix), initial=0.0))  # inf or NaN exactly when an entry is
    if not math.isfinite(scale):
        raise ValueError("matrix contains non-finite entries")
    evs = np.linalg.eigvalsh(matrix)
    cut = _EIG_CUT_REL * scale
    # eigvalsh is ascending, so the magnitudes come out descending
    negatives = -evs[evs < -cut]
    negatives.flags.writeable = False
    return EigenReport(negatives=negatives)


def _check_gamma(gamma: float) -> None:
    if not gamma >= 1:
        raise ValueError("gamma must be >= 1")


def riesz_mean(report: EigenReport, gamma: float) -> float:
    """Sum of |negative eigenvalue|^gamma; 0 for an empty spectrum."""
    _check_gamma(gamma)
    with np.errstate(over="ignore"):  # an overflow is rejected as a non-finite side
        return float(np.sum(np.asarray(report.negatives) ** gamma))


def _lt_constant(gamma: float, k_factor: float, d: int) -> float:
    # (pi/sqrt3)^d * K * L_cl(gamma, d): the constant of every lattice bound
    return (math.pi / math.sqrt(3.0)) ** d * k_factor * special.semiclassical_constant(gamma, d)


def _seeds_of(items, seeds) -> list:
    """The seed of each item (potential or family), None for each without
    seeds.  No items, or seeds of another length, raise ValueError, since
    zip would silently drop the reports past the shorter list."""
    if not len(items) or (seeds is not None and len(seeds) != len(items)):
        raise ValueError(f"need one seed per item and at least one item, got {len(items)} items")
    return [None] * len(items) if seeds is None else seeds


def _verify_lattice(form, potentials, seeds, integrals, sup_bounds, ladders, quadrature, gamma, /, **params) -> list:
    # The verifier loop of h1, h2 and the torus on the lattice operator `form`.
    # Each potential climbs its ladder: each rung is enclosed from both sides
    # (from below only when s is None), and the first whose sides agree to
    # _GAP_REL relative decides, else the last rung.  Only then is its rhs
    # integral drawn from `integrals`: a generator integrates each potential
    # after its eigensolves.
    integrals = iter(integrals)
    reports = []
    for potential, seed, s, ladder in zip(potentials, seeds, sup_bounds, ladders):
        for n in ladder:
            # popped, so a spare of another shape is freed before this rung's eigensolve
            lower, upper = form.enclosure(potential, n, s, _spare.__dict__.pop("matrix", None))
            rep, _spare.matrix = negative_spectrum(lower), lower  # no caller holds it
            lhs_upper = None if upper is None else riesz_mean(negative_spectrum(upper), gamma)
            if lhs_upper is not None and lhs_upper - riesz_mean(rep, gamma) <= _GAP_REL * lhs_upper:
                break
        const = _lt_constant(gamma, form.k, potential.d)
        reports.append(BoundReport.build(
            riesz_mean(rep, gamma), const * float(next(integrals)), const, gamma=gamma, **params, truncation=n,
            lhs_upper=lhs_upper, quadrature=quadrature(potential), negative_count=len(rep.negatives),
            lhs_is_lower_bound=True, **({} if seed is None else {"seed": seed})))
    return reports


def _verify_1d(which, beta, alpha, potentials, gamma, n_max, seeds, /, **params) -> list:
    # h1 and h2 on potentials of one shape, on the period 2pi/alpha.  The rhs
    # quadratures run first, as one stack: they hold the grid budget check,
    # so a band too wide for it is rejected before any eigensolve.
    seeds = _seeds_of(potentials, seeds)
    _check_gamma(gamma)
    form = _form(which, beta, alpha)
    form.check(potentials[0])
    integrals = trace_power_integral(potentials, gamma + 0.5, 2.0 * math.pi / alpha)
    sup_bounds = _sup_bound(np.stack([potential.coeffs for potential in potentials]))
    ladders = [form.truncations(potential, s) if n_max is None else [n_max]
               for potential, s in zip(potentials, sup_bounds)]
    return _verify_lattice(form, potentials, seeds, integrals, sup_bounds, ladders, _quad_grid_1d, gamma,
                           **params, m_dim=potentials[0].m_dim, band=potentials[0].bands[0])


def verify_bound_h1(potentials, alpha: float, beta: float, gamma: float, n_max: int | None = None, seeds=None) -> list:
    """Check the Riesz-mean bound for the mass-added operator, one
    BoundReport per potential (of one shape) and its seed.

    lhs: gamma-moment of the Galerkin negative spectrum (a lower bound on
    the continuum moment); lhs_upper: the moment of the upper matrix of
    _lattice_operator (an upper bound on it, None without one).  rhs:
    (pi/sqrt3) K1(beta) L_cl(gamma,1) times the trace integral of
    V^(gamma+1/2).  By default the truncation is the first rung of
    _Form.truncations whose two sides agree to 1e-12 relative, else b + 32.
    seeds, one entry per potential, adds a "seed" field to each report
    whose entry is not None.
    """
    return _verify_1d("add", beta, alpha, potentials, gamma, n_max, seeds, operator="h1", alpha=alpha, beta=beta)


def verify_bound_h2(potentials, delta: float, gamma: float, n_max: int | None = None, seeds=None) -> list:
    """Mass-subtracted mirror of :func:`verify_bound_h1`, with K2(delta)."""
    return _verify_1d("subtract", delta, 1.0, potentials, gamma, n_max, seeds, operator="h2", delta=delta)
