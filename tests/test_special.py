import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltbounds import special

from oracles import lattice_sum


class TestLogGamma:
    def test_exact_values(self):
        assert special.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert special.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert special.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            special.log_gamma(0.0)
        with pytest.raises(ValueError):
            special.log_gamma(-2.5)

    def test_integer_factorials(self):
        # ln Gamma(n) = ln (n-1)!, with the factorial evaluated exactly.
        for n in range(2, 101, 7):
            exact = math.log(math.factorial(n - 1))
            assert special.log_gamma(float(n)) == pytest.approx(exact, rel=1e-12)

    def test_half_integers(self):
        # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
        for n in range(0, 40, 5):
            exact = (
                math.log(math.factorial(2 * n))
                + 0.5 * math.log(math.pi)
                - n * math.log(4.0)
                - math.log(math.factorial(n))
            )
            assert special.log_gamma(n + 0.5) == pytest.approx(exact, rel=1e-12)


class TestSemiclassicalConstant:
    def test_reference_values(self):
        assert special.semiclassical_constant(1, 1) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-13)
        assert special.semiclassical_constant(1, 2) == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-13)
        assert special.semiclassical_constant(0, 1) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            special.semiclassical_constant(-0.5, 1)
        with pytest.raises(ValueError):
            special.semiclassical_constant(1.0, 0)

    @given(
        gamma=st.floats(min_value=0.0, max_value=10.0),
        d=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_d(self, gamma, d):
        a = special.semiclassical_constant(gamma, d)
        b = special.semiclassical_constant(gamma, d + 1)
        assert b < a

    def test_product_identity(self):
        for gamma in (1.0, 1.5, 2.0, 3.0):
            for d in range(1, 7):
                prod, direct = special.product_identity_check(gamma, d)
                assert prod == pytest.approx(direct, rel=1e-12)


class TestOrthonormalConstant:
    def test_reference_values(self):
        assert special.lt_to_orthonormal_constant(math.pi / 24.0, 2) == pytest.approx(
            math.pi / 6.0, rel=1e-13
        )
        assert special.lt_to_orthonormal_constant(3.0 / 8.0, 2) == pytest.approx(1.5, rel=1e-13)
        assert special.lt_to_orthonormal_constant(1.0, 1) == pytest.approx(27.0 / 4.0, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            special.lt_to_orthonormal_constant(0.0, 2)
        with pytest.raises(ValueError):
            special.lt_to_orthonormal_constant(1.0, 0)


def _dense_points() -> list[float]:
    """Kernel arguments across every branch: both series seams a few ulps
    either side, signed zeros, the approach to the pole at -1, and up to 1e9."""
    seams = []
    for x in (0.01, -0.01):
        for direction in (math.inf, -math.inf):
            y = x
            for _ in range(4):
                y = math.nextafter(y, direction)
                seams.append(y)
        seams.append(x)
    near_pole = [math.nextafter(-1.0, 0.0)]
    for _ in range(3):
        near_pole.append(math.nextafter(near_pole[-1], 0.0))
    points = np.concatenate([
        seams, near_pole, [0.0, -0.0, -0.999999, -0.99, -0.25, 1e9],
        np.linspace(-0.999, 2.0, 1500),
        np.geomspace(1e-12, 1e9, 1500),
        -np.geomspace(1e-12, 0.999, 1500),
    ])
    return [float(x) for x in points]


class TestXcothKernel:
    def test_series_oracle_at_one(self):
        # sum_{k in Z} 1/(k^2+1) = pi * h(1); partial sum to 1e7 plus tail.
        oracle = lattice_sum(1.0, 10**7, True) / math.pi
        assert special.xcoth_kernel(1.0) == pytest.approx(oracle, abs=1e-9)
        assert special.xcoth_kernel(1.0) == pytest.approx(1.0 / math.tanh(math.pi), rel=1e-14)

    def test_origin_and_negative_zero_of_cot(self):
        assert special.xcoth_kernel(0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        # cot(pi/2) = 0 at s = -1/4
        assert special.xcoth_kernel(-0.25) == pytest.approx(0.0, abs=1e-14)

    def test_domain_error_at_pole(self):
        with pytest.raises(ValueError):
            special.xcoth_kernel(-1.0)
        with pytest.raises(ValueError):
            special.xcoth_kernel(-1.7)

    def test_lattice_identity(self):
        # Closed form vs truncated series with integral tail, K = 1e6.
        for lam in (0.01, 1.0, 100.0):
            closed = math.pi * special.xcoth_kernel(lam) / lam
            assert closed == pytest.approx(lattice_sum(lam, 10**6, True), abs=1e-9)

    def test_continuity_at_zero(self):
        # h(s) = 1/pi + (pi/3) s + O(s^2): the first-order term dominates at
        # s = 1e-8, so continuity is checked at that scale, and the series
        # branch reproduces the slope.
        for s in (1e-8, -1e-8):
            drift = special.xcoth_kernel(s) - 1.0 / math.pi
            assert abs(drift) <= 2e-8
            assert drift == pytest.approx(math.pi * s / 3.0, rel=1e-6)

    def test_branch_seam(self):
        # Series and closed-form branches agree at the handoff radius.
        for s in (0.0099999, 0.0100001, -0.0099999, -0.0100001):
            u = (math.pi**2) * s
            series = (1 + u / 3 - u**2 / 45 + 2 * u**3 / 945 - u**4 / 4725 + 2 * u**5 / 93555) / math.pi
            assert special.xcoth_kernel(s) == pytest.approx(series, rel=1e-12)

    @given(st.floats(min_value=-0.99, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_strictly_increasing(self, s):
        # h is strictly increasing on (-1, inf).
        eps = 1e-4
        assert special.xcoth_kernel(s + eps) > special.xcoth_kernel(s)

    def test_vectorized_matches_scalar(self):
        # The golden-section probes run the private float twins, the public
        # functions the masked array path, and the two must agree bitwise.
        # The results depend on the host's SIMD loops, so both paths run
        # here and no constant is pinned.
        points = _dense_points()
        pairs = ((special.xcoth_kernel, special._kernel_float), (special.xcoth_excess, special._excess_float))
        for fn, twin in pairs:
            vec = fn(np.array(points))
            for s, v in zip(points, vec):
                assert twin(s) == v == fn(np.array([s]))[0] == fn(s), s.hex()

    @pytest.mark.parametrize("fn", [special.xcoth_kernel, special.xcoth_excess])
    def test_nan_is_rejected_on_both_paths(self, fn):
        with pytest.raises(ValueError, match="requires s > -1"):
            fn(math.nan)
        with pytest.raises(ValueError, match="requires s > -1"):
            fn(np.array([0.5, math.nan, 2.0]))


class TestXcothExcess:
    def test_value_at_zero(self):
        assert special.xcoth_excess(0.0) == pytest.approx(math.pi / 3.0, rel=1e-14)

    def test_consistency_with_kernel(self):
        for s in (-0.7, -0.05, 0.05, 3.0, 50.0):
            direct = (special.xcoth_kernel(s) - 1.0 / math.pi) / s
            assert special.xcoth_excess(s) == pytest.approx(direct, rel=1e-11)

    def test_no_cancellation_near_zero(self):
        # Series branch keeps full relative accuracy where the naive
        # difference would lose ~8 digits.
        for s in (1e-9, -1e-9, 1e-6, -1e-6):
            expect = math.pi / 3.0 - math.pi**3 * s / 45.0
            assert special.xcoth_excess(s) == pytest.approx(expect, rel=1e-12)
