"""Fourier-Galerkin spectra of periodic operators with matrix potentials.

One lattice operator, -sum_j alpha_j^2 d_j^2 + mass - V on the modes
|k_j| <= n_j, optionally projected onto the modes with k_d != 0, covers
every verifier, and one builder (_lattice_operator) makes its matrices:

  * mass-added h1:       -d^2/dx^2 + a^2 b - V(x)   on L2(0, 2pi/a),
  * mass-subtracted h2:  -d^2/dx^2 - delta - P V P  on the zero-mean
    subspace of L2(0, 2pi), P removing the mean,
  * the torus operator:  -Laplacian - P V P, P removing the mean along the
    shortest coordinate (see the torus module).

V is a band-limited Hermitian, pointwise-PSD matrix function.  Because the
basis restriction is a Rayleigh-Ritz projection, every computed Riesz mean
of the negative spectrum is a lower bound on the true one, so a verified
inequality can only fail when the continuum inequality actually fails.  The
builder's padded form, one scatter on the box and a ring of modes around
it, also gives an upper matrix: a Schur complement on the ring, whose Riesz
mean bounds the true one from above.  The 1D verifiers use both and by
default take the smallest truncation of a short ladder at which the two
bounds agree to 1e-12 relative.

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
# (band, nodes) phase tables kept per process: a verification uses two or
# three, and each is at most a few hundred kB at CLI defaults
_PHASE_MEMO_SIZE = 32
# Largest dense Galerkin matrix (rows = modes * m_dim) any assembler builds:
# 10,000 complex rows are 1.6 GB, and the eigensolver roughly doubles that.
# A real cos/sin row costs half: it is scattered in place, with no complex
# matrix alongside, so 0.8 GB at the budget.
ROW_BUDGET = 10_000
# The default 1D truncations climb to b + _TOP_MARGIN and stop where the two
# sides of the enclosure agree to _GAP_REL relative (see _Form.truncations).
_TOP_MARGIN = 32
_GAP_REL = 1e-12


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

    def values_on_grid(self, nodes) -> np.ndarray:
        """V on the uniform phase grid with nodes[j] points on axis j; shape (*nodes, m, m)."""
        # neither the grid nor an axis's memoised (nodes, 2b+1) phase table holds
        # more entries than the largest dense Galerkin matrix
        tables = [n * (2 * b + 1) for b, n in zip(self.bands, nodes)]
        if max([math.prod(nodes) * self.m_dim**2, *tables]) > ROW_BUDGET**2:
            raise ValueError(f"a grid of {math.prod(nodes)} nodes or its phase tables exceed the dense budget")
        out = self.coeffs
        for axis, (b, n) in enumerate(zip(self.bands, nodes)):
            phases = _phase_table(b, n)
            with np.errstate(over="ignore", invalid="ignore"):  # rejected as a non-finite side
                out = np.moveaxis(np.tensordot(phases, out, axes=([1], [axis])), 0, axis)
        return out

    def validate(self) -> None:
        """Assert finite, pointwise positive semidefinite values on a phase
        grid of max(ceil(512^(1/d)), 4 nodes per mode) points per axis."""
        per_axis = math.ceil(_PSD_SAMPLES ** (1.0 / self.d))
        nodes = [max(per_axis, 4 * (2 * b + 1)) for b in self.bands]
        values = self.values_on_grid(nodes)
        # An overflowed grid holds inf and NaN, which pass every comparison
        # below.  Every bound side integrates V, so this is the error the CLI
        # reports for any input that overflows.
        if not np.all(np.isfinite(values)):
            raise ValueError("bound sides must be finite: the potential overflows on its sample grid")
        evs = _block_eigvalsh(values)
        scale = max(1.0, float(np.max(np.abs(evs))))
        if float(np.min(evs)) < -_PSD_TOL * scale:
            raise ValueError("potential is not pointwise PSD on the sample grid")


@functools.lru_cache(maxsize=_PHASE_MEMO_SIZE)
def _phase_table(b: int, n: int) -> np.ndarray:
    """Read-only (n, 2b+1) table exp(i k theta_j), theta_j = 2 pi j / n, |k| <= b."""
    theta = 2.0 * math.pi * np.arange(n) / n
    # built in place, without the table-sized temporaries of exp(1j * outer)
    phases = np.zeros((n, 2 * b + 1), dtype=complex)
    np.multiply.outer(theta, np.arange(-b, b + 1), out=phases.imag)
    phases.imag += 0.0  # 1j * x has imaginary part +0.0 where x is -0.0
    np.exp(phases, out=phases)
    phases.flags.writeable = False
    return phases


@dataclass(frozen=True)
class EigenReport:
    """Magnitudes of the negative eigenvalues, sorted descending."""

    negatives: tuple


def constant_potential(value: float, m_dim: int = 1) -> MatrixPotential:
    """Scalar-multiple-of-identity potential V(x) = value * I."""
    if value < 0:
        raise ValueError("constant potential must be >= 0")
    return MatrixPotential((value * np.eye(m_dim, dtype=complex))[None])


def _psd_coeffs(d: int, m_dim: int, band: int, scale: float, seed: int) -> np.ndarray:
    """Coefficients of a random V = W W^H on the d-dimensional lattice: W has
    band `band` per axis and i.i.d. complex Gaussian (m_dim, m_dim) coefficient
    blocks of standard deviation `scale`."""
    _check_psd_params(d, m_dim, band, scale)
    rng = np.random.default_rng(seed)
    shape = (2 * band + 1,) * d + (m_dim, m_dim)
    w = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    return _autocorrelation(w)


def _check_psd_params(d: int, m_dim: int, band: int, scale: float) -> None:
    """Reject the parameters of :func:`_psd_coeffs` before it does any work."""
    if d < 1 or m_dim < 1 or band < 0 or scale <= 0:
        raise ValueError("invalid potential parameters")
    # V's band 2*band needs a Galerkin matrix within the row budget; rejected before V's grid is built
    _check_rows((2 * band,) * d, m_dim, projected=band > 0)


def _autocorrelation(w: np.ndarray) -> np.ndarray:
    """Coefficients V_m = sum_k W_k W_{k-m}^H of V = W W^H.

    w has shape (2*b_1+1, ..., 2*b_d+1, m, r) with r >= 0; V has bands 2*b_j
    and (m, m) blocks.  V is c^2 times the inverse FFT of F F^H, with F the
    FFT of W / c zero-padded to V's box (so no offset wraps around) and c
    the largest entry of W, so only the product by c^2 can overflow.
    Averaging with the flipped adjoint makes MatrixPotential's pairing
    V_-m = V_m^H exact.
    """
    lattice = tuple(range(w.ndim - 2))
    c = float(np.max(np.abs(w), initial=0.0)) or 1.0  # an empty or zero W stays zero
    f = np.fft.fftn(w / c, s=[2 * n - 1 for n in w.shape[:-2]], axes=lattice)
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


def _power_integral(potential: MatrixPotential, p: float, volume: float, nodes) -> float:
    """Rectangle rule for the integral of Tr V_+^p over a cell of `volume`.

    The pointwise spectra come from :func:`_block_eigvalsh`, so the 1x1 and
    2x2 blocks of the torus and of the default 1D and family potentials cost
    no LAPACK call.  Negative eigenvalues of V are clipped to zero.
    Tr V_+^p is not band-limited for fractional p, so the grid (at least 4
    nodes per mode on every axis) is doubled: a relative drift above 1e-8
    raises ConvergenceError, and otherwise the refined value is returned.
    V is evaluated once, on the doubled grid: node j of an n-node axis,
    2 pi j / n, equals node 2j of the 2n-node axis bitwise, so the coarse
    rule sums every second node of the refined pass.
    """
    if p < 1:
        raise ValueError("power p must be >= 1")
    nodes = tuple(int(n) for n in nodes)
    minimum = tuple(4 * (2 * b + 1) for b in potential.bands)
    if len(nodes) != len(minimum) or any(n < lo for n, lo in zip(nodes, minimum)):
        raise ValueError(f"grid {nodes} below minimum {minimum}")

    fine = tuple(2 * n for n in nodes)
    evs = np.clip(_block_eigvalsh(potential.values_on_grid(fine)), 0.0, None)
    with np.errstate(over="ignore"):  # an overflow is rejected as a non-finite side
        powers = evs**p
        coarse = powers[(slice(None, None, 2),) * len(nodes)]  # every second node per axis
        value = float(volume / math.prod(nodes) * np.sum(coarse))
        refined = float(volume / math.prod(fine) * np.sum(powers))
    _check_doubling(value, refined, "power integral")
    return refined


def random_psd_potential(m_dim: int, band: int, scale: float, seed: int) -> MatrixPotential:
    """Random pointwise-PSD 1D potential V = W W^H, deterministic per seed;
    W has band `band` and coefficient standard deviation `scale`."""
    pot = MatrixPotential(_psd_coeffs(1, m_dim, band, scale, seed))
    pot.validate()
    return pot


def _quad_grid_1d(potential: MatrixPotential) -> int:
    # Fractional powers kink where an eigenvalue branch grazes zero; 32 nodes
    # per mode keep the random PSD ensemble's doubling drift well under 1e-8.
    return 32 * (2 * potential.bands[0] + 1)


def trace_power_integral(potential: MatrixPotential, p: float, period: float) -> float:
    """Integral of Tr V_+^p over one period of a 1D potential, on 32 nodes
    per mode refined by doubling."""
    return _power_integral(potential, p, period, (_quad_grid_1d(potential),))


def _assemble_lattice(modes: np.ndarray, kinetic: np.ndarray, coeffs: np.ndarray, real: bool,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Galerkin matrix diag(kinetic) - V on an integer mode lattice.

    modes is (n, d) and coeffs has shape (2b_1+1, ..., 2b_d+1, m, m), so each
    mode carries an (m, m) block.  Modes i and j couple through
    coeffs[k_i - k_j] when the difference lies inside the coefficient box.
    The scatter runs once per box offset, so besides the matrix it only
    allocates arrays of length n.

    When `real`, V is scalar and real and mode n-1-i is -(mode i).  For
    k_i of the first half, i < h = n/2, row i is then the cosine
    (e_k + e_-k)/sqrt2 and row h + i the sine -i(e_k - e_-k)/sqrt2, a
    unitary change of basis.  With P[i, j] = a[k_i, k_j] and
    Q[i, j] = a[k_i, -k_j] of the complex matrix a, the n x n float array
    [[Re(P + Q), Im(P - Q)], [Im(P - Q)^T, Re(P - Q)]] is built, refilling
    `out` when it has that shape.  An entry takes at most one term of P,
    V(k_i - k_j), and one of Q, V(k_i + k_j); the zero offset goes first,
    so a diagonal entry is kinetic - V(0) before its Q term, as in a.
    """
    n, d = modes.shape
    m = coeffs.shape[-1]
    widths = np.array(coeffs.shape[:d])
    rows = n // 2 if real else n  # the rows the scatter fills: the cosine rows, or all
    if real:
        a = out if out is not None and out.shape == (n, n) else np.empty((n, n))
        a.fill(0.0)
        np.fill_diagonal(a, np.tile(kinetic[:rows], 2))
        flat = a.reshape(-1)  # view
        index = np.arange(n)  # partner j >= h is -k of cosine row n-1-j: a Q term, negated in P - Q
        column, sign = np.minimum(index, n - 1 - index), np.where(index < rows, 1.0, -1.0)
    else:
        a = np.diag(np.repeat(kinetic, m).astype(complex))
        blocks = a.reshape(n, m, n, m)  # view: blocks[i, :, j, :] couples mode i to mode j
    # row of each mode in a table over the modes' bounding box, padded by the
    # band so that every partner k_i - dk indexes inside it; -1 elsewhere
    bands = (widths - 1) // 2
    low = modes.min(axis=0, initial=0) - bands
    row_of = np.full(tuple(modes.max(axis=0, initial=0) - low + bands + 1), -1, np.intp)
    row_of[tuple((modes - low).T)] = np.arange(n)
    partner = modes[:rows] - low + bands  # k_i - dk - low is partner - offset, dk = offset - bands
    for offset in sorted(np.ndindex(*widths), key=lambda o: o != tuple(bands)):
        j = row_of[tuple((partner - offset).T)]
        i = np.flatnonzero(j >= 0)
        j = j[i]
        if not real:
            blocks[i, :, j, :] -= coeffs[offset]
            continue
        v = complex(coeffs[offset][0, 0])
        at, s = i * n + column[j], sign[j]  # flat index of entry (i, column)
        flat[at] -= v.real  # Re(P + Q)
        flat[at + rows] -= s * v.imag  # Im(P - Q), to the right
        flat[at + rows * (n + 1)] -= s * v.real  # Re(P - Q), to the lower right
    if real:
        a[rows:, :rows] = a[:rows, rows:].T
    return a


def _check_rows(n_modes, m_dim: int, projected: bool) -> None:
    """Reject a Galerkin matrix on |k_j| <= n_j (k_d != 0 if projected) over ROW_BUDGET rows."""
    last = 2 * n_modes[-1] + (0 if projected else 1)
    rows = math.prod(2 * n + 1 for n in n_modes[:-1]) * last * m_dim
    if rows > ROW_BUDGET:
        raise ValueError(f"Galerkin size {rows} exceeds the dense budget {ROW_BUDGET} rows")


def _kinetic(alphas, modes: np.ndarray, mass: float) -> np.ndarray:
    """The kinetic diagonal sum_j (alpha_j k_j)^2 + mass of each mode row k."""
    with np.errstate(over="ignore"):  # an overflow is rejected as a non-finite entry or side
        return np.sum((np.asarray(alphas) * modes) ** 2, axis=1) + mass


def _lattice_operator(potential: MatrixPotential, alphas, mass, n_modes, projected, s=None, out=None) -> tuple:
    """The lower and upper matrices of -sum_j alpha_j^2 d_j^2 + mass - V on the modes |k_j| <= n_j.

    The modes keep the lexicographic (meshgrid "ij") order of the box.  When
    `projected`, the k_d = 0 modes are dropped: P removes the mean along the
    last (shortest) coordinate, and P V P coincides with V on that span.  A
    projected operator with a scalar (hence real) V is built in the real
    cos/sin basis of :func:`_assemble_lattice`, which refills `out` when it
    fits; every other one is complex Hermitian on the exponentials.

    The lower matrix is the Galerkin matrix.  Without s the upper one is
    None.  Given s >= sup ||V||, one scatter on the box padded by max(b_j, 1)
    per axis gives H = [[A, B], [B^H, D]] on the box P and the ring S around
    it; A is the Galerkin matrix bitwise.  The full operator has no coupling
    from P beyond S, and on the modes Q outside P it is at least
    D0 = diag(kinetic) - s.  When D0 is positive, [[B D0^-1 B^H, B], [B^H, D0]]
    >= 0, so the operator is at least (A - B D0^-1 B^H) + 0, and by min-max
    each of its negative eigenvalues lies at or above the matching one of
    the upper matrix A - B D0^-1 B^H: its Riesz mean bounds the continuum
    one from above.  The ring holds the lightest mode of Q, so the upper
    matrix is None exactly when that mode weighs s or less.  The padded box
    is symmetric under k -> -k, so the cos/sin rows split into box and ring
    rows too, and the real upper matrix is formed in that basis.
    """
    n_modes = tuple(int(n) for n in n_modes)
    if len(n_modes) != potential.d:
        raise ValueError("one truncation per axis required")
    if any(n < b for n, b in zip(n_modes, potential.bands)):
        raise ValueError("truncation must cover the potential band")
    if projected and n_modes[-1] < 1:
        raise ValueError("need at least one mode pair along the projected axis")
    padded = n_modes if s is None else tuple(n + max(b, 1) for n, b in zip(n_modes, potential.bands))
    for box in (n_modes, padded):  # before the (2n+1)^d box is built
        _check_rows(box, potential.m_dim, projected)
    mesh = np.meshgrid(*[np.arange(-n, n + 1) for n in padded], indexing="ij")
    modes = np.stack([g.ravel() for g in mesh], axis=-1)
    if projected:
        modes = modes[modes[:, -1] != 0]
    kinetic = _kinetic(alphas, modes, mass)
    # MatrixPotential's exact adjoint pairing makes a 1x1-block V real
    real = projected and potential.m_dim == 1
    h = _assemble_lattice(modes, kinetic, potential.coeffs, real, out)
    if s is None:
        return h, None
    # the mode of each row: the first half's cos then sin rows, or m_dim rows per mode
    index = np.arange(len(modes))
    row_mode = np.tile(index[: len(index) // 2], 2) if real else np.repeat(index, potential.m_dim)
    inside = np.all(np.abs(modes[row_mode]) <= n_modes, axis=1)
    box, ring = np.flatnonzero(inside), np.flatnonzero(~inside)
    a = h[np.ix_(box, box)]
    if not np.min(kinetic[row_mode[ring]]) > s:
        return a, None
    coupling = h[np.ix_(box, ring)]
    upper = a - (coupling / (kinetic[row_mode[ring]] - s)) @ coupling.conj().T
    return a, upper


def _sup_bound(potential: MatrixPotential) -> float:
    """s = sum_k ||V_k||_2, an upper bound on sup_x ||V(x)||.  Each spectral
    norm is c times the root of the largest eigenvalue of U^H U, U = V_k / c
    with c the largest entry of any V_k (so U^H U cannot overflow), which
    :func:`_block_eigvalsh` gives without a LAPACK call for 1x1 and 2x2 blocks."""
    c = float(np.max(np.abs(potential.coeffs), initial=0.0))
    if c == 0.0:
        return 0.0
    unit = potential.coeffs / c
    largest = _block_eigvalsh(unit.conj().swapaxes(-1, -2) @ unit)[..., -1]
    return c * float(np.sum(np.sqrt(np.maximum(largest, 0.0))))


@dataclass(frozen=True)
class _Form:
    """A 1D quadratic form of h1/h2, trace1/trace2 and the interpolation check:
    alpha^2 k^2 + mass on the modes exp(i k alpha x) of the period 2pi/alpha,
    only k != 0 when `projected`; solve_k() gives its sharp constant."""

    alpha: float
    mass: float
    projected: bool
    solve_k: functools.partial

    def weights(self, band: int) -> np.ndarray:
        """The kinetic diagonal on the modes |k| <= band, k = 0 included."""
        return _kinetic((self.alpha,), np.arange(-band, band + 1)[:, None], self.mass)

    def truncations(self, potential: MatrixPotential, s: float) -> list:
        """The default truncation ladder n0 + 12, n0 + 16, ... below b + 32,
        then b + 32 itself, for a band-b potential with sup ||V|| <= s.  n0 is
        the smallest n >= b whose first mode outside |k| <= n weighs more
        than s: the first truncation with an upper bound (see _lattice_operator)."""
        b = potential.bands[0]
        top = b + _TOP_MARGIN
        above = np.flatnonzero(self.weights(top)[top + b + 1:] > s)  # k = b+1, ..., top
        n0 = b + int(above[0]) if above.size else top
        return [*range(n0 + 12, top, 4), top]

    def enclosure(self, potential: MatrixPotential, n_max: int, s: float | None = None) -> tuple:
        """The Galerkin matrix of the form minus V on the modes |k| <= n_max,
        and its upper matrix given s >= sup ||V|| (see _lattice_operator)."""
        _check_1d(potential)
        return _lattice_operator(potential, (self.alpha,), self.mass, (n_max,), self.projected, s)


def _check_1d(potential: MatrixPotential) -> None:
    if potential.d != 1:
        raise ValueError("the 1D forms need a 1D potential")


def _form(which: str, beta: float, alpha: float = 1.0) -> _Form:
    """The checked mass-added form ("add": + alpha^2 beta, K1(beta)) or the
    zero-mean mass-subtracted one ("subtract": - beta on period 2pi, K2(beta))."""
    if which == "add":
        if not (alpha > 0 and beta > 0):
            raise ValueError("the mass-added form needs alpha > 0 and beta > 0")
        return _Form(alpha, alpha * alpha * beta, False, functools.partial(interp.k1, beta))
    if which == "subtract":
        if not 0.0 <= beta < 1.0:
            raise ValueError("the mass-subtracted form needs beta in [0, 1)")
        if alpha != 1.0:
            raise ValueError("the mass-subtracted form lives on period 2*pi, alpha = 1")
        return _Form(alpha, -beta, True, functools.partial(interp.k2, beta))
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
    # max|A| is inf or NaN exactly when an entry is; a float A takes it as
    # |max(max A, -min A)|, without the n x n temporary of np.abs(A)
    if matrix.dtype.kind == "f" and matrix.size:
        scale = abs(float(np.maximum(np.max(matrix), -np.min(matrix))))
    else:
        scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    if not math.isfinite(scale):
        raise ValueError("matrix contains non-finite entries")
    evs = np.linalg.eigvalsh(matrix)
    cut = _EIG_CUT_REL * scale
    # eigvalsh is ascending, so the magnitudes come out descending
    return EigenReport(negatives=tuple(float(v) for v in -evs[evs < -cut]))


def _check_gamma(gamma: float) -> None:
    if not gamma >= 1:
        raise ValueError("gamma must be >= 1")


def riesz_mean(report: EigenReport, gamma: float) -> float:
    """Sum of |negative eigenvalue|^gamma; 0 for an empty spectrum."""
    _check_gamma(gamma)
    if not report.negatives:
        return 0.0
    with np.errstate(over="ignore"):  # an overflow is rejected as a non-finite side
        return float(np.sum(np.asarray(report.negatives) ** gamma))


def _lt_constant(gamma: float, k_factor: float, d: int) -> float:
    # (pi/sqrt3)^d * K * L_cl(gamma, d): the constant of every lattice bound
    return (math.pi / math.sqrt(3.0)) ** d * k_factor * special.semiclassical_constant(gamma, d)


def _lattice_bound(potential, rep, gamma, k_factor, integral, quadrature, seed, **params):
    # Shared tail of the h1, h2 and torus verifiers: the Riesz mean of rep
    # against the constant times `integral`, the integral of
    # Tr V_+^(gamma + d/2) on the `quadrature` grid; params join the metadata.
    lhs = riesz_mean(rep, gamma)
    const = _lt_constant(gamma, k_factor, potential.d)
    meta = {
        "gamma": gamma,
        **params,
        "quadrature": quadrature,
        "negative_count": len(rep.negatives),
        "lhs_is_lower_bound": True,
    }
    if seed is not None:
        meta["seed"] = seed
    return BoundReport.build(lhs, const * integral, constant_used=const, **meta)


def _verify_1d(form, potential, gamma, n_max, period, seed, **params) -> BoundReport:
    # Shared body of the h1 and h2 verifiers.  The rhs quadrature runs first:
    # it holds the grid budget check, so a band too wide for it is rejected
    # before any eigensolve.  Each truncation of the ladder (only n_max when
    # it is given) is enclosed from both sides; the first whose sides agree
    # to _GAP_REL relative decides, else the ladder's top rung.
    _check_1d(potential)
    integral = trace_power_integral(potential, gamma + 0.5, period)
    s = _sup_bound(potential)
    for n in form.truncations(potential, s) if n_max is None else [n_max]:
        lower, upper = form.enclosure(potential, n, s)
        rep = negative_spectrum(lower)
        lhs_upper = None if upper is None else riesz_mean(negative_spectrum(upper), gamma)
        if lhs_upper is not None and lhs_upper - riesz_mean(rep, gamma) <= _GAP_REL * lhs_upper:
            break
    return _lattice_bound(
        potential, rep, gamma, form.solve_k().value, integral, _quad_grid_1d(potential), seed,
        **params, truncation=n, lhs_upper=lhs_upper, m_dim=potential.m_dim,
        band=potential.bands[0],
    )


def verify_bound_h1(
    potential: MatrixPotential,
    alpha: float,
    beta: float,
    gamma: float,
    n_max: int | None = None,
    seed: int | None = None,
) -> BoundReport:
    """Check the Riesz-mean bound for the mass-added operator.

    lhs: gamma-moment of the Galerkin negative spectrum (a lower bound on
    the continuum moment); lhs_upper: the moment of the upper matrix of
    _Form.enclosure (an upper bound on it, None without one).  rhs:
    (pi/sqrt3) K1(beta) L_cl(gamma,1) times the trace integral of
    V^(gamma+1/2).  By default the truncation is the first rung of
    _Form.truncations whose two sides agree to 1e-12 relative, else b + 32.
    """
    _check_gamma(gamma)
    form = _form("add", beta, alpha)
    return _verify_1d(
        form, potential, gamma, n_max, 2.0 * math.pi / alpha, seed,
        operator="h1", alpha=alpha, beta=beta,
    )


def verify_bound_h2(
    potential: MatrixPotential,
    delta: float,
    gamma: float,
    n_max: int | None = None,
    seed: int | None = None,
) -> BoundReport:
    """Mass-subtracted mirror of :func:`verify_bound_h1`, with K2(delta)."""
    _check_gamma(gamma)
    form = _form("subtract", delta)
    return _verify_1d(form, potential, gamma, n_max, 2.0 * math.pi, seed, operator="h2", delta=delta)
