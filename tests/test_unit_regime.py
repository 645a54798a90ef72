"""K1 = 1 at the torus's working auxiliary mass, proved in interval arithmetic.

Every torus report uses K1(beta) = sup_lam g(lam, beta) = 1 at the beta that
choose_betas picks, one bisection tolerance above the threshold beta_star, with

    g(lam, beta) = sqrt(lam / (lam + beta)) * coth(pi * sqrt(lam + beta)).

On lam in [a, b] the first factor rises and the second falls, so g lies between
sqrt(a / (a + beta)) coth(pi sqrt(b + beta)) and
sqrt(b / (b + beta)) coth(pi sqrt(a + beta)).  Bisecting [0, LAM_TAIL] with
these bounds in mpmath.iv either proves g <= 1 on every piece or finds a
piece on which g > 1 throughout.

For lam >= LAM_TAIL, with t = lam + beta: sqrt(1 - beta/t) <= 1 - beta/(2t),
and coth x <= 1 + c e^(-2x) for x >= pi sqrt(beta), c = 2 / (1 - e^(-2 pi sqrt(beta))).
So g <= 1 + c e^(-2 pi sqrt(t)) - beta/(2t), which is at most 1 once
2 t c e^(-2 pi sqrt(t)) <= beta; the left side decreases for t > 1/pi^2, so
checking it at t = LAM_TAIL + beta covers the whole tail.
"""

import collections
import contextlib

import pytest

from ltbounds import interp, torus

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv

DPS = 30
LAM_TAIL = 100
# A piece this narrow that is neither proved nor refuted fails the proof.
_MIN_WIDTH = mpmath.mpf("1e-20")


@contextlib.contextmanager
def _digits():
    # mpmath.iv has no workdps
    saved = iv.dps, mpmath.mp.dps
    iv.dps = mpmath.mp.dps = DPS
    try:
        yield
    finally:
        iv.dps, mpmath.mp.dps = saved


def _coth(x):
    # mpmath.iv has no tanh
    return 1 + 2 / (iv.exp(2 * x) - 1)


def _bisect(beta: float) -> tuple:
    """("proved", pieces, worst upper bound) when g(., beta) <= 1 on [0, LAM_TAIL],
    else ("above", (a, b)) for the first piece found with g > 1 on all of it.

    Pieces are halved breadth first, so a piece straddling a point where
    g = 1 (which neither bound decides) is not refined before its neighbours."""
    pieces, worst = 0, 0
    with _digits():
        b_iv = iv.mpf(beta)
        queue = collections.deque([(mpmath.mpf(0), mpmath.mpf(LAM_TAIL))])
        while queue:
            lo, hi = queue.popleft()
            lo_iv, hi_iv = iv.mpf(lo), iv.mpf(hi)
            upper = iv.sqrt(hi_iv / (hi_iv + b_iv)) * _coth(iv.pi * iv.sqrt(lo_iv + b_iv))
            if upper.b <= 1:
                pieces += 1
                worst = max(worst, upper.b)
                continue
            lower = iv.sqrt(lo_iv / (lo_iv + b_iv)) * _coth(iv.pi * iv.sqrt(hi_iv + b_iv))
            if lower.a > 1:
                return "above", (lo, hi)
            assert hi - lo > _MIN_WIDTH, f"g(., {beta}) undecided on [{lo}, {hi}]"
            mid = (lo + hi) / 2
            queue += [(lo, mid), (mid, hi)]
    return "proved", pieces, worst


def _tail_constant(beta):
    """c = 2 / (1 - e^(-2 pi sqrt(beta))) for an interval beta: coth x <= 1 + c e^(-2x)
    for x >= pi sqrt(beta), with equality at pi sqrt(beta)."""
    return 2 / (1 - iv.exp(-2 * iv.pi * iv.sqrt(beta)))


def _tail_proved(beta: float) -> bool:
    """The closed-form tail bound: g(., beta) <= 1 on [LAM_TAIL, inf)."""
    with _digits():
        b_iv = iv.mpf(beta)
        t = LAM_TAIL + b_iv
        return (2 * t * _tail_constant(b_iv) * iv.exp(-2 * iv.pi * iv.sqrt(t))).b <= b_iv.a


def test_k1_is_one_at_the_working_beta():
    beta = torus.choose_betas(torus.TorusGeometry((1.0, 1.0))).betas[0]
    result = _bisect(beta)
    assert result[0] == "proved" and result[2] <= 1, result
    assert _tail_proved(beta)


def test_one_tol_below_the_threshold_g_exceeds_1():
    beta = interp.beta_star(torus._THRESHOLD_TOL) - torus._THRESHOLD_TOL
    result = _bisect(beta)
    assert result[0] == "above", result


def test_tail_constant_bounds_coth():
    # coth x - 1 - c e^(-2x) is 0 at pi sqrt(beta) and negative beyond; an
    # interval that lies wholly above 0 disproves the bound (half of c gives
    # about 0.36 at pi sqrt(beta))
    beta = torus.choose_betas(torus.TorusGeometry((1.0, 1.0))).betas[0]
    with _digits():
        b_iv = iv.mpf(beta)
        for x in (iv.pi * iv.sqrt(b_iv), 2 * iv.pi * iv.sqrt(b_iv)):
            excess = _coth(x) - 1 - _tail_constant(b_iv) * iv.exp(-2 * x)
            assert excess.a <= 0, (x, excess)
