"""Gamma-function helpers, semiclassical constants, and the sqrt-coth kernel.

All routines here are pure scalar/array functions shared by the rest of the
package.  The central object is the kernel

    h(s) = sqrt(s) * coth(pi*sqrt(s)),        s > 0,

analytically continued through s = 0 (where h = 1/pi) to

    h(s) = sqrt(-s) * cot(pi*sqrt(-s)),       -1 < s < 0,

which is the closed form of the lattice sum  sum_{k in Z} 1/(k^2 + s)
= pi * h(s) / s.  The first cotangent pole makes s = -1 a hard domain
boundary.

The public kernel and its excess take one masked array path, which runs a
scalar as a 0-d array and returns a float.  The K-solve's golden-section
probes call the private _kernel_float and _excess_float instead, which skip
the masks and 0-d arrays and match the array path bit for bit: both share
the Horner evaluation of the Bernoulli series, and tanh and tan are numpy's
ufuncs on both, because math.tanh and math.tan differ from numpy's SIMD
loops in the last bit on some points (sqrt is correctly rounded either way).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma",
    "semiclassical_constant",
    "product_identity_check",
    "lt_to_orthonormal_constant",
    "xcoth_kernel",
    "xcoth_excess",
]

# Radius below which the Bernoulli series for t*coth(t) (in powers of
# t^2 = pi^2 s) replaces the closed form: both closed-form branches lose
# accuracy near s = 0, the series is exact to ~1e-12 at |s| = 0.01.
_SERIES_RADIUS = 0.01

# Taylor coefficients of t*coth(t) in powers of t^2, through t^10.
_TCOTH = (1.0, 1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0, -1.0 / 4725.0, 2.0 / 93555.0)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Relative accuracy is a couple of ulp (the platform lgamma), well within
    the 1e-12 target on [0.5, 100].
    """
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def semiclassical_constant(gamma: float, d: int) -> float:
    """Phase-space constant Gamma(g+1) / (2^d pi^(d/2) Gamma(g+d/2+1)).

    This is the classical constant appearing in Weyl-type bounds on Riesz
    means of negative eigenvalues in dimension d.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if d < 1 or d != int(d):
        raise ValueError(f"d must be a positive integer, got {d}")
    log_num = log_gamma(gamma + 1.0)
    log_den = log_gamma(gamma + 0.5 * d + 1.0)
    return math.exp(log_num - log_den) / (2.0**d * math.pi ** (0.5 * d))


def product_identity_check(gamma: float, d: int) -> tuple[float, float]:
    """Dimension-lifting identity: the 1D constants at orders g, g+1/2, ...
    multiply out to the d-dimensional constant.

    Returns (product of the d one-dimensional factors, direct d-dimensional
    value).  The two agree to ~1e-12 relative; callers assert this.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if d < 1 or d != int(d):
        raise ValueError(f"d must be a positive integer, got {d}")
    prod = 1.0
    for j in range(1, d + 1):
        prod *= semiclassical_constant(gamma + 0.5 * (j - 1), 1)
    return prod, semiclassical_constant(gamma, d)


def lt_to_orthonormal_constant(lt_constant: float, d: int) -> float:
    """Convert a 1-moment eigenvalue-bound constant into the equivalent
    orthonormal-family constant: (2/d) (1+d/2)^(1+2/d) L^(2/d)."""
    if lt_constant <= 0:
        raise ValueError(f"lt_constant must be > 0, got {lt_constant}")
    if d < 1 or d != int(d):
        raise ValueError(f"d must be a positive integer, got {d}")
    return (2.0 / d) * (1.0 + 0.5 * d) ** (1.0 + 2.0 / d) * lt_constant ** (2.0 / d)


def _as_array(s) -> tuple[np.ndarray, bool]:
    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


def _horner(u, coeffs):
    # Same evaluation order as np.polynomial.polynomial.polyval, so a float
    # and an array argument round alike.
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + acc * u
    return acc


def _kernel_float(s: float) -> float:
    if abs(s) < _SERIES_RADIUS:
        return _horner((math.pi * math.pi) * s, _TCOTH) / math.pi
    if s > 0:
        r = math.sqrt(s)
        return r / float(np.tanh(math.pi * r))
    t = math.sqrt(-s)
    return t / float(np.tan(math.pi * t))


def _excess_float(s: float) -> float:
    if abs(s) < _SERIES_RADIUS:
        return math.pi * _horner((math.pi * math.pi) * s, _TCOTH[1:])
    return (_kernel_float(s) - 1.0 / math.pi) / s


def _kernel_array(arr: np.ndarray) -> np.ndarray:
    out = np.empty_like(arr)
    small = np.abs(arr) < _SERIES_RADIUS
    if np.any(small):
        u = (math.pi * math.pi) * arr[small]
        out[small] = _horner(u, _TCOTH) / math.pi
    pos = ~small & (arr > 0)
    if np.any(pos):
        r = np.sqrt(arr[pos])
        out[pos] = r / np.tanh(math.pi * r)
    neg = ~small & (arr < 0)
    if np.any(neg):
        t = np.sqrt(-arr[neg])
        out[neg] = t / np.tan(math.pi * t)
    return out


def xcoth_kernel(s):
    """h(s) = sqrt(s)*coth(pi*sqrt(s)), continued smoothly across s = 0.

    Accepts scalars or arrays (elementwise).  For |s| below the series
    radius the Bernoulli expansion of t*coth(t) is used, which avoids the
    0/0 ill-conditioning of both closed-form branches near the origin.
    Raises ValueError at or beyond the first cotangent pole (s <= -1) and
    for NaN.
    """
    arr, scalar = _as_array(s)
    if not np.all(arr > -1.0):
        raise ValueError("xcoth_kernel requires s > -1 (first cotangent pole)")
    out = _kernel_array(arr)
    return float(out) if scalar else out


def xcoth_excess(s):
    """(h(s) - 1/pi) / s with the removable singularity at s = 0 filled in.

    The subtraction is catastrophic near s = 0 if done naively; the series
    branch evaluates the quotient directly (value pi/3 at s = 0).
    """
    arr, scalar = _as_array(s)
    if not np.all(arr > -1.0):
        raise ValueError("xcoth_excess requires s > -1 (first cotangent pole)")
    out = np.empty_like(arr)
    small = np.abs(arr) < _SERIES_RADIUS
    if np.any(small):
        u = (math.pi * math.pi) * arr[small]
        out[small] = math.pi * _horner(u, _TCOTH[1:])
    big = ~small
    if np.any(big):
        sb = arr[big]
        out[big] = (_kernel_array(sb) - 1.0 / math.pi) / sb
    return float(out) if scalar else out
