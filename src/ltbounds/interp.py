"""Sharp constants of the two coth-type interpolation inequalities.

The two inequalities bound ||u||_inf^2 by the geometric mean of an H^1-type
quadratic form and the L^2 norm on a circle.  Their sharp constants have the
closed forms

    K1(beta) = sup_{lam>0} sqrt(lam) * coth(pi*sqrt(beta+lam)) / sqrt(beta+lam)
    K2(beta) = sup_{lam>0} sqrt(lam) * (h(lam-beta) - 1/pi) / (lam-beta)

with h the sqrt-coth kernel from :mod:`ltbounds.special`.  Both objectives
tend to 1 as lam -> inf, so each constant equals max(1, interior maximum).
K1 is non-increasing in beta and equals 1 above a threshold beta_star; K2 is
non-decreasing and equals 1 below a threshold beta_star_star.  The two
thresholds are located by bisection on the interior maximum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import special
from .reports import ConvergenceError

__all__ = [
    "ConstantResult",
    "CurveTable",
    "g_objective",
    "f_objective",
    "k1",
    "k2",
    "beta_star",
    "beta_star_star",
    "export_curve",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# The sup-over-lambda search: a logarithmic grid guards against missed peaks
# near the origin, and a golden-section pass refines the best grid point to
# _REFINE_REL_TOL relative accuracy in lambda.
_LAMBDA_MIN = 1e-10
_LAMBDA_MAX = 1e8
_GRID_POINTS = 2000
_REFINE_REL_TOL = 1e-12
_GRID = np.geomspace(_LAMBDA_MIN, _LAMBDA_MAX, _GRID_POINTS)
_GRID.flags.writeable = False
# Interior maxima within this distance of 1 still get a reported argmax: at
# the K2 threshold the sup is attained at a finite point and at infinity
# simultaneously, and the finite maximizer is the useful datum.
_ARGMAX_TIE_TOL = 1e-9
# k1, k2 and the thresholds are memoised per process: the verifiers ask for
# the same few betas over and over, and every result is immutable.
_MEMO_SIZE = 1024


@dataclass(frozen=True)
class ConstantResult:
    """A sharp-constant value together with solver diagnostics.

    value = max(1, interior_max).  argmax_lambda is None when the supremum
    is attained only in the lam -> inf limit.
    """

    beta: float
    value: float
    argmax_lambda: float | None
    interior_max: float


def g_objective(lam, beta):
    """sqrt(lam) * coth(pi*sqrt(beta+lam)) / sqrt(beta+lam)  for lam, beta > 0.

    Equals twice sqrt(lam) times the diagonal Green's function of
    -d^2/dx^2 + beta + lam on the unit circle (after rescaling the period
    away).  Accepts scalars or arrays in lam; the K-solve's golden-section
    probes take a private float twin of it, bitwise equal.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if not np.all(lam_arr > 0):
        raise ValueError("g_objective requires lambda > 0")
    if not beta > 0:
        raise ValueError("g_objective requires beta > 0")
    s = beta + lam_arr
    out = np.sqrt(lam_arr) * np.asarray(special.xcoth_kernel(s)) / s
    return float(out) if lam_arr.ndim == 0 else out


def f_objective(lam, beta):
    """sqrt(lam) * (h(lam-beta) - 1/pi) / (lam-beta)  for lam > 0, 0 <= beta < 1.

    The zero-mean-subspace analogue of :func:`g_objective`; the argument
    lam - beta may be negative (down to -beta > -1) and crosses zero
    smoothly.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if not np.all(lam_arr > 0):
        raise ValueError("f_objective requires lambda > 0")
    if not 0.0 <= beta < 1.0:
        raise ValueError("f_objective requires beta in [0, 1)")
    out = np.sqrt(lam_arr) * np.asarray(special.xcoth_excess(lam_arr - beta))
    return float(out) if lam_arr.ndim == 0 else out


def _golden_max(fn, log_lo: float, log_hi: float, tol: float) -> tuple[float, float]:
    # Golden-section maximization on log-lambda.
    a, b = log_lo, log_hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fn(math.exp(c))
    fd = fn(math.exp(d))
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(math.exp(d))
    return (math.exp(c), fc) if fc >= fd else (math.exp(d), fd)


def _interior_max(fn, probe) -> tuple[float, float, bool]:
    """Maximize over the lambda grid: fn takes it as one array, probe one float.

    Returns (lam_best, value_best, interior) where interior is False when
    the best grid point sits on the grid boundary, i.e. the scan found no
    interior peak and the 'maximum' is really the approach to a limit.
    """
    vals = fn(_GRID)
    i = int(np.argmax(vals))
    interior = 0 < i < _GRID_POINTS - 1
    lam_best, v_best = float(_GRID[i]), float(vals[i])
    lo = _GRID[max(i - 1, 0)]
    hi = _GRID[min(i + 1, _GRID_POINTS - 1)]
    tol = math.log1p(_REFINE_REL_TOL)
    lam_ref, v_ref = _golden_max(probe, math.log(lo), math.log(hi), tol)
    if v_ref > v_best:
        lam_best, v_best = lam_ref, v_ref
    return lam_best, v_best, interior


def _constant(fn, probe, beta: float) -> ConstantResult:
    lam_best, v_best, interior = _interior_max(fn, probe)
    value = max(1.0, v_best)
    report_argmax = interior and v_best > 1.0 - _ARGMAX_TIE_TOL
    return ConstantResult(
        beta=float(beta),
        value=float(value),
        argmax_lambda=float(lam_best) if report_argmax else None,
        interior_max=float(v_best),
    )


@functools.lru_cache(maxsize=_MEMO_SIZE)
def k1(beta: float) -> ConstantResult:
    """Sharp constant of the mass-added inequality: 2 sup sqrt(lam) g_beta(lam)."""
    if not beta > 0:
        raise ValueError("k1 requires beta > 0")
    return _constant(lambda lam: g_objective(lam, beta),
                     lambda lam: math.sqrt(lam) * special._kernel_float(beta + lam) / (beta + lam), beta)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def k2(beta: float) -> ConstantResult:
    """Sharp constant of the mass-subtracted (zero-mean) inequality."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("k2 requires beta in [0, 1)")
    return _constant(lambda lam: f_objective(lam, beta),
                     lambda lam: math.sqrt(lam) * special._excess_float(lam - beta), beta)


def _bisect(name: str, excess, lo: float, hi: float, tol: float) -> float:
    # excess is positive at lo, negative at hi and changes sign once.  Below
    # the float spacing of the bracket the midpoint stops moving, so the
    # loop also ends when it is no longer strictly inside.
    if not 0.0 < tol <= 0.01:
        raise ValueError("tol must lie in (0, 0.01]")
    if not (excess(lo) > 0.0 and excess(hi) < 0.0):
        raise RuntimeError(f"{name} bracket failure: excess does not change sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def beta_star(tol: float = 1e-6) -> float:
    """Smallest beta with K1(beta) = 1, by bisection on the interior maximum.

    K1 is monotone non-increasing, so the excess (interior max - 1) changes
    sign exactly once on the bracket [1e-4, 1].
    """
    return _bisect("beta_star", lambda b: k1(b).interior_max - 1.0, 1e-4, 1.0, tol)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def beta_star_star(tol: float = 1e-6) -> float:
    """Largest beta with K2(beta) = 1; mirror image of :func:`beta_star`.

    K2 is monotone non-decreasing; bracket [0, 1 - 1e-6].
    """
    return _bisect("beta_star_star", lambda b: 1.0 - k2(b).interior_max, 0.0, 1.0 - 1e-6, tol)


@dataclass(frozen=True)
class CurveTable:
    """Sampled constant-vs-beta curve, ready for CSV/JSON export."""

    which: str
    rows: tuple  # of (beta, value, argmax_lambda or None)

    def to_csv(self) -> str:
        lines = ["beta,K,argmax_lambda"]
        for beta, value, argmax in self.rows:
            sentinel = "inf" if argmax is None else repr(argmax)
            lines.append(f"{beta!r},{value!r},{sentinel}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        rows = [{"beta": b, "K": v, "argmax_lambda": a} for b, v, a in self.rows]
        return {"which": self.which, "rows": rows}


def export_curve(which: str, beta_min: float, beta_max: float, n: int) -> CurveTable:
    """Sample K1 or K2 on n equispaced betas and enforce monotonicity.

    The whole range is checked before any solve.  K1 must be non-increasing
    and K2 non-decreasing; a violation beyond solver noise indicates a
    sup-search bug and raises ConvergenceError.
    """
    if n < 2:
        raise ValueError("need at least 2 sample points")
    if beta_min >= beta_max:
        raise ValueError("beta_min must be < beta_max")
    if which == "k1":
        if beta_min <= 0:
            raise ValueError("k1 requires beta > 0")
        solve = k1
    elif which == "k2":
        if not (0.0 <= beta_min and beta_max < 1.0):
            raise ValueError("k2 requires beta in [0, 1)")
        solve = k2
    else:
        raise ValueError(f"which must be 'k1' or 'k2', got {which!r}")
    betas = np.linspace(beta_min, beta_max, n)
    rows = []
    for b in betas:
        res = solve(float(b))
        rows.append((res.beta, res.value, res.argmax_lambda))
    values = [r[1] for r in rows]
    sign = -1.0 if which == "k1" else 1.0
    for prev, cur in zip(values, values[1:]):
        if not sign * (cur - prev) >= -1e-10:
            raise ConvergenceError(f"{which} curve failed monotonicity")
    return CurveTable(which=which, rows=tuple(rows))
