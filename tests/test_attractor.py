import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltbounds import attractor
from ltbounds.attractor import FlowParams


def params(nu=1.0, mu=1.0, length=1.0, grad=1.0, aspect=1.0):
    return FlowParams(nu=nu, mu=mu, length=length, grad_g_norm=grad, aspect=aspect)


class TestFlowParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowParams(nu=0.0, mu=1.0, length=1.0, grad_g_norm=1.0)
        with pytest.raises(ValueError):
            FlowParams(nu=1.0, mu=1.0, length=1.0, grad_g_norm=-1.0)
        with pytest.raises(ValueError):
            FlowParams(nu=1.0, mu=1.0, length=1.0, grad_g_norm=1.0, aspect=1.5)
        with pytest.raises(ValueError, match="must be positive"):
            FlowParams(nu=math.nan, mu=1.0, length=1.0, grad_g_norm=1.0)
        with pytest.raises(ValueError, match="cannot be negative"):
            FlowParams(nu=1.0, mu=1.0, length=1.0, grad_g_norm=math.nan)


class TestSquareBound:
    def test_unit_parameters(self):
        # min(3/16, 3/(2 sqrt 2)) = 3/16 with everything at 1
        assert attractor.dim_bound_square(params()) == pytest.approx(3.0 / 16.0, rel=1e-14)

    def test_no_forcing(self):
        assert attractor.dim_bound_square(params(grad=0.0)) == 0.0

    def test_small_viscosity_branch(self):
        val = attractor.dim_bound_square(params(nu=1e-3))
        assert val == pytest.approx(187.5, rel=1e-12)
        # the other branch is 1060.66, so the first must have been selected
        assert val < (1.5 / math.sqrt(2.0)) * 1.0 / 1e-3

    def test_branch_switch_is_continuous(self):
        # Branches cross at G = 4 sqrt(2) L mu^2; the min is continuous there.
        crossing = 4.0 * math.sqrt(2.0)
        grads = np.linspace(0.9 * crossing, 1.1 * crossing, 101)
        vals = [attractor.dim_bound_square(params(grad=float(g))) for g in grads]
        diffs = np.abs(np.diff(vals))
        assert np.max(diffs) < 0.1 * max(vals)  # no jump
        lo = attractor.dim_bound_square(params(grad=crossing * (1 - 1e-9)))
        hi = attractor.dim_bound_square(params(grad=crossing * (1 + 1e-9)))
        assert lo == pytest.approx(hi, rel=1e-6)

    def test_homogeneity_per_branch(self):
        # degree 2 in the forcing below the crossing, degree 1 above it
        small = attractor.dim_bound_square(params(grad=0.5))
        assert attractor.dim_bound_square(params(grad=1.0)) == pytest.approx(4 * small, rel=1e-12)
        big = attractor.dim_bound_square(params(grad=100.0))
        assert attractor.dim_bound_square(params(grad=200.0)) == pytest.approx(2 * big, rel=1e-12)

    @pytest.mark.parametrize("c_lt", [0.0, -1.0, math.nan])
    def test_constant_must_be_positive(self, c_lt):
        with pytest.raises(ValueError, match="c_lt must be positive"):
            attractor.dim_bound_square(params(), c_lt=c_lt)

    def test_square_torus_only(self):
        # the aspect-uniform estimate is the elongated one
        for aspect in (0.25, 1.0 - 1e-12):
            with pytest.raises(attractor.ValidityError, match="square-torus estimate does not apply"):
                attractor.dim_bound_square(params(aspect=aspect))

    def test_decreasing_in_viscosity_and_damping(self):
        for nu in (0.1, 0.2, 0.5, 1.0):
            a = attractor.dim_bound_square(params(nu=nu))
            b = attractor.dim_bound_square(params(nu=2 * nu))
            assert b < a
        for mu in (0.1, 0.2, 0.5, 1.0):
            a = attractor.dim_bound_square(params(mu=mu))
            b = attractor.dim_bound_square(params(mu=2 * mu))
            assert b < a


class TestElongatedBound:
    def test_default_coefficient(self):
        val = attractor.dim_bound_elongated(params())
        assert val == pytest.approx(math.pi / 12.0 + math.sqrt(math.pi), rel=1e-12)

    def test_coefficient_identity(self):
        # C_P/2 + sqrt(C_P c_q) with C_P = pi/6 and the default c_q is pi/12 + sqrt(pi)
        c_p, c_q = attractor.C_P, 6.0
        assert c_p == math.pi / 6.0
        assert 0.5 * c_p + math.sqrt(c_p * c_q) == pytest.approx(
            math.pi / 12.0 + math.sqrt(math.pi), rel=1e-14
        )

    @pytest.mark.parametrize("c_q", [0.0, -1.0, math.nan])
    def test_constant_must_be_positive(self, c_q):
        with pytest.raises(ValueError, match="c_q must be positive"):
            attractor.dim_bound_elongated(params(), c_q=c_q)

    def test_validity_guard(self):
        with pytest.raises(attractor.ValidityError):
            attractor.dim_bound_elongated(params(nu=9.0))
        # boundary itself is allowed
        attractor.dim_bound_elongated(params(nu=8.0))

    def test_independent_of_aspect_and_length(self):
        base = attractor.dim_bound_elongated(params())
        assert attractor.dim_bound_elongated(params(aspect=0.01)) == base
        assert attractor.dim_bound_elongated(params(length=50.0)) == base

    def test_decreasing_in_viscosity_and_damping(self):
        vals_nu = [attractor.dim_bound_elongated(params(nu=nu)) for nu in (0.1, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(vals_nu, vals_nu[1:]))
        vals_mu = [attractor.dim_bound_elongated(params(mu=mu)) for mu in (0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(vals_mu, vals_mu[1:]))


class TestKolmogorovNumber:
    def test_unit(self):
        assert attractor.kolmogorov_number(params()) == 1.0

    def test_forcing_scaling_form(self):
        # with ||grad g||^2 = mu^4 / aspect the number reduces to mu/(aspect*nu)
        mu, aspect, nu = 2.0, 0.5, 0.3
        grad = math.sqrt(mu**4 / aspect)
        p = params(nu=nu, mu=mu, grad=grad, aspect=aspect)
        assert attractor.kolmogorov_number(p) == pytest.approx(mu / (aspect * nu), rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_quadratic_homogeneity(self, grad):
        base = attractor.kolmogorov_number(params(grad=grad))
        doubled = attractor.kolmogorov_number(params(grad=2 * grad))
        assert doubled == pytest.approx(4 * base, rel=1e-12)
