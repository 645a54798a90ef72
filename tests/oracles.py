"""Independent reference computations used by the test suite.

Everything here is deliberately written from scratch (lattice partial sums,
dense grid scans, closed-form eigenvalue enumerations) so that it shares no
code path with the library routines it checks.
"""

import itertools
import math

import numpy as np


def tail_integral(c: float, x: float) -> float:
    """int_x^inf dt/(t^2+c), valid for c of either sign when x > sqrt(max(-c,0))."""
    if c > 0:
        rc = math.sqrt(c)
        return (0.5 * math.pi - math.atan(x / rc)) / rc
    if c == 0:
        return 1.0 / x
    a = math.sqrt(-c)
    return 0.5 / a * math.log((x + a) / (x - a))


def lattice_sum(c: float, terms: int, include_zero: bool) -> float:
    """sum over k in Z (optionally dropping k=0) of 1/(k^2+c), by partial sum
    plus the mean of the two sandwiching integral tails."""
    k = np.arange(1, terms + 1, dtype=float)
    s = 2.0 * float(np.sum(1.0 / (k * k + c)))
    if include_zero:
        s += 1.0 / c
    return s + tail_integral(c, terms) + tail_integral(c, terms + 1)


def g_series(lam: float, beta: float, terms: int = 100_000) -> float:
    """Mass-added objective via direct summation: 2 sqrt(lam) * (1/2pi) * sum."""
    return 2.0 * math.sqrt(lam) * lattice_sum(beta + lam, terms, True) / (2.0 * math.pi)


def f_series(lam: float, beta: float, terms: int = 100_000) -> float:
    """Zero-mean objective via direct summation over k != 0."""
    return 2.0 * math.sqrt(lam) * lattice_sum(lam - beta, terms, False) / (2.0 * math.pi)


def dense_grid_max(fn, lo: float, hi: float, n: int) -> tuple[float, float]:
    """Brute-force sup over a logarithmic grid; returns (argmax, max)."""
    grid = np.geomspace(lo, hi, n)
    vals = fn(grid)
    i = int(np.argmax(vals))
    return float(grid[i]), float(vals[i])


def constant_coeffs(value: float, d: int = 1, m_dim: int = 1) -> np.ndarray:
    """Coefficients of the constant potential V = value * I on the d-dimensional
    lattice: a single (m_dim, m_dim) block, at k = 0."""
    return (value * np.eye(m_dim, dtype=complex)).reshape((1,) * d + (m_dim, m_dim))


def h1_constant_potential_eigs(v: float, alpha: float, beta: float, n_max: int) -> np.ndarray:
    """Exact spectrum of -d^2/dx^2 + a^2 b - v on modes |k| <= n_max."""
    k = np.arange(-n_max, n_max + 1, dtype=float)
    return np.sort(alpha * alpha * (k * k + beta) - v)

def h2_constant_potential_eigs(v: float, delta: float, n_max: int) -> np.ndarray:
    """Exact spectrum of -d^2/dx^2 - delta - v on zero-mean modes 1 <= |k| <= n_max."""
    k = np.concatenate([np.arange(-n_max, 0), np.arange(1, n_max + 1)]).astype(float)
    return np.sort(k * k - delta - v)


def torus_constant_potential_eigs(v: float, alphas, n_max: int) -> np.ndarray:
    """Exact spectrum of the projected constant-potential torus operator."""
    d = len(alphas)
    grids = np.meshgrid(*[np.arange(-n_max, n_max + 1)] * d, indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
    ks = ks[ks[:, -1] != 0]
    kin = np.sum((np.asarray(alphas) * ks) ** 2, axis=1)
    return np.sort(kin - v)


def galerkin_loop(modes, kinetic, coeffs, coupled) -> np.ndarray:
    """Galerkin matrix diag(kinetic) - V by an explicit loop over mode pairs.

    modes is (n, d); coeffs[b_1 + dk_1, ..., b_d + dk_d] is the (m, m)
    potential block of the lattice difference dk, and a pair couples only
    when both of its modes are flagged in `coupled`.
    """
    modes = np.asarray(modes)
    n, d = modes.shape
    m = coeffs.shape[-1]
    bands = np.array([(w - 1) // 2 for w in coeffs.shape[:d]])
    size = n * m
    a = np.zeros((size, size), dtype=complex)
    a[np.arange(size), np.arange(size)] = np.repeat(kinetic, m)
    for i in range(n):
        for j in range(n):
            dk = modes[i] - modes[j]
            if coupled[i] and coupled[j] and np.all(np.abs(dk) <= bands):
                a[i * m : (i + 1) * m, j * m : (j + 1) * m] -= coeffs[tuple(dk + bands)]
    return a


def real_form(a) -> np.ndarray:
    """The real cos/sin form of a complex Galerkin matrix a of a real scalar V.

    The modes of a are symmetric under k -> -k in reverse order (mode n-1-i
    is -(mode i)), so a[-k, -l] = conj(a[k, l]).  For k_i of the first half
    h = n/2, row i is the cosine (e_k + e_-k)/sqrt2 and row h + i the sine
    -i(e_k - e_-k)/sqrt2.  With P[i, j] = a[k_i, k_j] and Q[i, j] = a[k_i, -k_j],
    the form is

        [[Re(P + Q), Im(P - Q)], [Im(P - Q)^T, Re(P - Q)]].

    The pairing is asserted to 1e-12 relative, which lets a rounded Schur
    complement through.
    """
    a = np.asarray(a)
    n = len(a)
    drift = np.max(np.abs(a[::-1, ::-1] - a.conj()), initial=0.0)
    assert n % 2 == 0 and drift <= 1e-12 * np.max(np.abs(a), initial=0.0), "modes are not paired k, -k"
    h = n // 2
    p = a[:h, :h]
    q = np.fliplr(a[:h, h:])  # column j is mode n-1-j, which is -k_j
    top = np.hstack([(p + q).real, (p - q).imag])
    bottom = np.hstack([(p - q).imag.T, (p - q).real])
    return np.vstack([top, bottom])


def psd_coeffs_1d_loop(m_dim: int, band: int, scale: float, seed: int) -> np.ndarray:
    """Coefficients of the 1D potential V = W W^H, by a double loop over
    offsets m and overlapping indices k."""
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
    return coeffs


def psd_coeffs_torus_loop(d: int, band: int, scale: float, seed: int) -> np.ndarray:
    """Coefficients of the scalar torus potential V = |w|^2, one offset of
    an itertools box loop at a time; shape (4*band+1,)*d."""
    rng = np.random.default_rng(seed)
    shape = (2 * band + 1,) * d
    w = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    out_band = 2 * band
    out_shape = (2 * out_band + 1,) * d
    coeffs = np.zeros(out_shape, dtype=complex)
    # autocorrelation v_m = sum_k w_k conj(w_{k-m}) over the overlap box
    for m in itertools.product(range(-out_band, out_band + 1), repeat=d):
        if m < tuple([0] * d):
            continue  # fill the lexicographically negative half by mirroring
        src = []
        dst = []
        for mj in m:
            lo = max(0, mj)
            hi = min(2 * band, 2 * band + mj)
            src.append(slice(lo, hi + 1))
            dst.append(slice(lo - mj, hi - mj + 1))
        val = complex(np.sum(w[tuple(src)] * np.conj(w[tuple(dst)])))
        idx = tuple(mj + out_band for mj in m)
        mirror = tuple(-mj + out_band for mj in m)
        if idx == mirror:
            coeffs[idx] = val.real
        else:
            coeffs[idx] = val
            coeffs[mirror] = val.conjugate()
    return coeffs


def family_values(coeffs, alpha: float, x) -> np.ndarray:
    """Orthonormal-family member values at physical nodes x in the basis
    sqrt(alpha/2pi) exp(i k alpha x); shape (n_members, len(x), m_dim)."""
    band = (coeffs.shape[1] - 1) // 2
    ks = np.arange(-band, band + 1)
    phases = np.exp(1j * alpha * np.outer(np.asarray(x, float), ks))
    basis = math.sqrt(alpha / (2.0 * math.pi))
    return basis * np.einsum("xk,nkj->nxj", phases, coeffs)


def rho_cubed_loop(coeffs, alpha: float, nodes: int) -> float:
    """Rectangle rule for the integral of Tr[U(x,x)^3] over the period
    2pi/alpha, with U(x,x) built member by member from family_values."""
    period = 2.0 * math.pi / alpha
    x = np.arange(nodes) * (period / nodes)
    vals = family_values(coeffs, alpha, x)
    u = np.einsum("nxa,nxb->xab", vals, vals.conj())
    tr3 = np.einsum("xab,xbc,xca->x", u, u, u).real
    return float(period / nodes * np.sum(tr3))


def riesz_mean_of(eigs, gamma: float) -> float:
    neg = np.asarray(eigs, dtype=float)
    neg = -neg[neg < 0]
    return float(np.sum(neg**gamma))


def direct_sum_on_grid(coeffs, nodes) -> np.ndarray:
    """sum_k coeffs[k + b] exp(i k.theta) on the phase grid of nodes[j] points
    per axis, one explicit (n, 2b+1) phase matrix per axis; the phase of
    k theta_j is reduced exactly, as 2 pi (j k mod n) / n.  coeffs is
    (S, 2b_1+1, ..., 2b_d+1, m, m); shape (S, *nodes, m, m)."""
    out = np.asarray(coeffs, dtype=complex)
    for axis, n in enumerate(nodes, start=1):
        b = (out.shape[axis] - 1) // 2
        turns = np.outer(np.arange(n), np.arange(-b, b + 1)) % n
        out = np.moveaxis(np.tensordot(np.exp(2j * math.pi * turns / n), out, axes=(1, axis)), 0, axis)
    return out
