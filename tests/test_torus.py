import json
import math
import sys
import threading

import numpy as np
import pytest

from ltbounds import attractor, interp, special, spectral1d, torus
from ltbounds.reports import ConvergenceError
from ltbounds.spectral1d import negative_spectrum, riesz_mean

from oracles import constant_coeffs, galerkin_loop, real_form, riesz_mean_of, torus_constant_potential_eigs


class TestGeometry:
    def test_basic(self):
        geom = torus.TorusGeometry((0.25, 1.0))
        assert geom.d == 2
        assert geom.periods == (8.0 * math.pi, 2.0 * math.pi)
        assert geom.volume == pytest.approx(16.0 * math.pi**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            torus.TorusGeometry((1.0,))
        with pytest.raises(ValueError):
            torus.TorusGeometry((0.5, 0.25, 1.0))  # not sorted
        with pytest.raises(ValueError):
            torus.TorusGeometry((0.5, 0.9))  # last ratio must be 1
        with pytest.raises(ValueError):
            torus.TorusGeometry((-0.5, 1.0))
        with pytest.raises(ValueError, match="period ratios must be positive"):
            torus.TorusGeometry((math.nan, 1.0))


class TestChooseBetas:
    def test_small_geometry_unit_regime(self):
        sel = torus.choose_betas(torus.TorusGeometry((0.5, 1.0)))
        assert sel.in_unit_regime
        assert sel.constant_factor == 1.0
        assert sel.delta == pytest.approx(0.25 * sel.betas[0], rel=1e-12)
        assert sel.delta < 0.839

    def test_d19_square_still_unit(self):
        sel = torus.choose_betas(torus.TorusGeometry((1.0,) * 19))
        assert sel.in_unit_regime
        assert sel.delta == pytest.approx(18.0 * sel.betas[0], rel=1e-12)
        assert sel.delta <= 0.839

    def test_d21_square_leaves_unit_regime(self):
        # delta0 ~ 20 * beta_star ~ 0.89 < 1: thresholds masses kept, K2 > 1.
        sel = torus.choose_betas(torus.TorusGeometry((1.0,) * 21))
        assert not sel.in_unit_regime
        assert sel.delta < 1.0
        assert sel.constant_factor > 1.0

    def test_d25_square_triggers_shrink(self):
        # delta0 ~ 24 * beta_star > 1: all masses shrink, delta capped below 1.
        sel = torus.choose_betas(torus.TorusGeometry((1.0,) * 25))
        assert not sel.in_unit_regime
        assert sel.delta < 1.0
        assert sel.constant_factor > 1.0
        bs = interp.beta_star(1e-6)
        assert sel.betas[0] < bs  # shrunk below the threshold

    def test_unit_regime_over_random_geometries(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(2, 20))
            alphas = np.sort(rng.uniform(0.0, 1.0, size=d - 1))
            alphas = np.clip(alphas, 1e-6, 1.0)
            geom = torus.TorusGeometry(tuple(alphas) + (1.0,))
            assert torus.choose_betas(geom).in_unit_regime


class TestConstantBound:
    def test_two_dim_unit_value(self):
        sel = torus.choose_betas(torus.TorusGeometry((1.0, 1.0)))
        const = spectral1d._lt_constant(1.0, sel.constant_factor, 2)
        assert const == pytest.approx(math.pi / 24.0, rel=1e-12)

    def test_one_dim_analogue(self):
        assert spectral1d._lt_constant(1.0, 1.0, 1) == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), rel=1e-12)

    def test_matches_unit_formula_up_to_19(self):
        for d in (2, 5, 12, 19):
            sel = torus.choose_betas(torus.TorusGeometry((1.0,) * d))
            expected = (math.pi / math.sqrt(3.0)) ** d * (
                special.semiclassical_constant(1.5, d)
            )
            const = spectral1d._lt_constant(1.5, sel.constant_factor, d)
            assert const == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("aspect", [1.0, 0.5, 0.1, 0.01])
    def test_orthonormal_constant_is_pi_over_6_at_every_aspect(self, aspect):
        # attractor.C_P: the constant chain at gamma = 1 on the 2-torus stays
        # in the unit regime, so it does not depend on the aspect
        sel = torus.choose_betas(torus.TorusGeometry((aspect, 1.0)))
        assert sel.in_unit_regime
        c_p = special.lt_to_orthonormal_constant(spectral1d._lt_constant(1, sel.constant_factor, 2), 2)
        assert c_p == pytest.approx(attractor.C_P, rel=1e-13)


class TestScalarPotential:
    def test_constant(self):
        pot = torus.ScalarPotentialD(constant_coeffs(2.0, d=2))
        vals = spectral1d._values_on_grid(pot.coeffs[None], (4, 4))[0, ..., 0, 0].real
        assert np.allclose(vals, 2.0)

    def test_random_nonnegative_and_symmetric(self):
        pot = torus.ScalarPotentialD.random(2, 2, 1.0, [7])[0]
        assert pot.bands == (4, 4)
        spectral1d._validate(pot.coeffs[None])
        vals = spectral1d._values_on_grid(pot.coeffs[None], (40, 40))[0, ..., 0, 0].real
        assert float(vals.min()) >= -1e-10 * max(1.0, float(vals.max()))

    def test_unpaired_coefficients_rejected_on_construction(self):
        coeffs = np.zeros((3, 3), dtype=complex)
        coeffs[1, 1] = 1.0
        coeffs[2, 1] = 0.4  # no conjugate partner at (0, 1)
        with pytest.raises(ValueError, match="adjoint"):
            torus.ScalarPotentialD(coeffs[..., None, None])

    def test_matrix_blocks_rejected(self):
        with pytest.raises(ValueError, match="1x1"):
            torus.ScalarPotentialD(np.eye(2, dtype=complex)[None, None])

    def test_validate_rejects_a_sign_changing_potential(self):
        coeffs = np.zeros((3, 3), dtype=complex)
        coeffs[0, 1] = coeffs[2, 1] = 0.5  # V = cos(theta_1)
        pot = torus.ScalarPotentialD(coeffs[..., None, None])
        with pytest.raises(ValueError, match="PSD"):
            spectral1d._validate(pot.coeffs[None])

    def test_sample_grid_bounded_by_the_dense_budget(self, monkeypatch):
        # validate() samples 4^5 = 1,024 nodes of the band-0 5-torus potential
        monkeypatch.setattr(spectral1d, "ROW_BUDGET", 32)
        torus.ScalarPotentialD.random(5, 0, 1.0, [0])
        monkeypatch.setattr(spectral1d, "ROW_BUDGET", 31)
        with pytest.raises(ValueError, match="budget"):
            torus.ScalarPotentialD.random(5, 0, 1.0, [0])

    def test_random_deterministic(self):
        a = torus.ScalarPotentialD.random(2, 1, 1.0, [3])[0]
        b = torus.ScalarPotentialD.random(2, 1, 1.0, [3])[0]
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_power_integral_constant(self):
        pot = torus.ScalarPotentialD(constant_coeffs(2.0, d=2))
        geom = torus.TorusGeometry((1.0, 1.0))
        val = spectral1d._power_integral(pot.coeffs[None], 2.0, geom.volume, (4, 4))[0]
        assert val == pytest.approx(4.0 * math.pi**2 * 4.0, rel=1e-13)

    def test_power_integral_scales_with_volume(self):
        pot = torus.ScalarPotentialD.random(2, 1, 1.0, [9])[0]
        small = torus.potential_power_integral(pot, torus.TorusGeometry((1.0, 1.0)), 2.0)
        big = torus.potential_power_integral(pot, torus.TorusGeometry((0.25, 1.0)), 2.0)
        assert big == pytest.approx(4.0 * small, rel=1e-12)

    def test_power_integral_returns_the_doubled_grid_value(self):
        pot = torus.ScalarPotentialD.random(2, 1, 1.0, [0])[0]
        geom = torus.TorusGeometry((0.5, 1.0))

        def rectangle(n):
            vals = np.clip(spectral1d._values_on_grid(pot.coeffs[None], (n, n))[0, ..., 0, 0].real, 0.0, None)
            return geom.volume / n**2 * float(np.sum(vals**2.5))

        got = torus.potential_power_integral(pot, geom, 2.5)  # 80 nodes per axis
        assert got == pytest.approx(rectangle(160), rel=1e-13)
        # the 80-node value sits 4e-12 away: ten times the tolerance above
        assert abs(got - rectangle(80)) > 1e-12 * got

    def test_power_integral_rejects_grid_below_minimum(self):
        # 4 nodes per mode: 20 per axis for the band-2 potential
        pot = torus.ScalarPotentialD.random(2, 1, 1.0, [0])[0]
        geom = torus.TorusGeometry((1.0, 1.0))
        with pytest.raises(ValueError, match="below minimum"):
            spectral1d._power_integral(pot.coeffs[None], 2.5, geom.volume, (10, 10))[0]

    def test_power_integral_flags_coarse_grid(self):
        # V^2.5 is not a trig polynomial; at 20 nodes per axis, the minimum
        # for the band-2 potential, its integral moves about 2e-7 (relative)
        # under grid doubling.
        pot = torus.ScalarPotentialD.random(2, 1, 1.0, [0])[0]
        geom = torus.TorusGeometry((1.0, 1.0))
        with pytest.raises(ConvergenceError):
            spectral1d._power_integral(pot.coeffs[None], 2.5, geom.volume, (20, 20))[0]
        torus.potential_power_integral(pot, geom, 2.5)  # default grid is fine


class TestAssembly:
    def test_constant_potential_enumeration(self):
        pot = torus.ScalarPotentialD(constant_coeffs(2.0, d=2))
        geom = torus.TorusGeometry((1.0, 1.0))
        a = torus.assemble_torus_operator(pot, geom, (5, 5))
        eigs = np.sort(np.linalg.eigvalsh(a))
        assert np.allclose(eigs, torus_constant_potential_eigs(2.0, (1.0, 1.0), 5), atol=1e-12)

    def test_zero_potential_spectral_floor(self):
        pot = torus.ScalarPotentialD(constant_coeffs(0.0, d=2))
        geom = torus.TorusGeometry((0.5, 1.0))
        a = torus.assemble_torus_operator(pot, geom, (4, 4))
        assert float(np.min(np.linalg.eigvalsh(a))) >= 1.0 - 1e-13

    def test_exact_hermiticity(self):
        # real in the cos/sin basis, so Hermitian means exactly symmetric
        pot = torus.ScalarPotentialD.random(2, 1, 1.0, [4])[0]
        geom = torus.TorusGeometry((0.5, 1.0))
        a = torus.assemble_torus_operator(pot, geom, (6, 6))
        assert a.dtype == np.float64
        assert np.array_equal(a, a.T)

    @pytest.mark.parametrize(
        "alphas, n_modes",
        [((1.0, 1.0), (4, 4)), ((0.5, 1.0), (4, 4)), ((0.5, 0.75, 1.0), (2, 2, 2)),
         ((0.5, 1.0), (9, 5)), ((0.5, 0.75, 1.0), (3, 2, 4))],
    )
    @pytest.mark.parametrize("projected", [False, True])
    def test_matches_loop_oracle(self, alphas, n_modes, projected):
        # projected: the paper's operator; unprojected: every box mode couples to V
        pot = torus.ScalarPotentialD.random(len(alphas), 1, 1.0, [6])[0]
        mesh = np.meshgrid(*[np.arange(-n, n + 1) for n in n_modes], indexing="ij")
        modes = np.stack([g.ravel() for g in mesh], axis=-1)
        if projected:
            modes = modes[modes[:, -1] != 0]
        kinetic = np.sum((np.asarray(alphas) * modes) ** 2, axis=1)
        want = galerkin_loop(modes, kinetic, pot.coeffs, np.ones(len(modes), bool))
        if projected:
            want = real_form(want)  # a scalar V: the cos/sin basis
            a = torus.assemble_torus_operator(pot, torus.TorusGeometry(alphas), n_modes)
        else:
            a, upper = spectral1d._lattice_operator(pot, alphas, 0.0, n_modes, projected=False)
            assert upper is None
        assert a.dtype == want.dtype
        assert np.array_equal(a, want)
        for part in (np.real, np.imag):  # zero signs too
            assert np.array_equal(np.signbit(part(a)), np.signbit(part(want)))

    def test_mode_budget_guard(self):
        pot = torus.ScalarPotentialD(constant_coeffs(1.0, d=2))
        geom = torus.TorusGeometry((1.0, 1.0))
        with pytest.raises(ValueError):
            torus.assemble_torus_operator(pot, geom, (100, 100))

    def test_budget_checked_before_the_mode_box_is_built(self):
        pot = torus.ScalarPotentialD(constant_coeffs(1.0, d=3))
        geom = torus.TorusGeometry((1.0, 1.0, 1.0))
        # 25 * 25 * 24 = 15,000 rows
        with pytest.raises(ValueError, match="budget"):
            torus.assemble_torus_operator(pot, geom, (12, 12, 12))
        # numpy would reject a box this size with "array is too big", not "budget"
        with pytest.raises(ValueError, match="budget"):
            torus.assemble_torus_operator(pot, geom, (10**6,) * 3)

    def test_q_block_does_not_change_negative_spectrum(self):
        pot = torus.ScalarPotentialD.random(2, 1, 1.2, [15])[0]
        geom = torus.TorusGeometry((0.5, 1.0))
        a_p = torus.assemble_torus_operator(pot, geom, (6, 6))
        # the full box with the k_d = 0 modes uncoupled from V: the bare Laplacian there
        mesh = np.meshgrid(np.arange(-6, 7), np.arange(-6, 7), indexing="ij")
        box = np.stack([g.ravel() for g in mesh], axis=-1)
        kinetic = np.sum((np.asarray(geom.alphas) * box) ** 2, axis=1)
        a_full = galerkin_loop(box, kinetic, pot.coeffs, box[:, -1] != 0)
        neg_p = negative_spectrum(a_p).negatives
        neg_full = negative_spectrum(a_full).negatives
        assert len(neg_p) == len(neg_full)
        assert np.allclose(neg_p, neg_full, atol=1e-11)


class TestDimensionMismatch:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: torus.verify_bound_torus(
                torus.ScalarPotentialD.random(3, 1, 1.0, [0]), torus.TorusGeometry((1.0, 1.0)),
                1.0, n_modes=(4, 4)),
            lambda: torus.potential_power_integral(
                torus.ScalarPotentialD.random(3, 1, 1.0, [0])[0], torus.TorusGeometry((1.0, 1.0)), 2.0),
            lambda: torus.verify_bound_torus(
                torus.ScalarPotentialD.random(2, 1, 1.0, [0]), torus.TorusGeometry((1.0, 1.0, 1.0)),
                1.0, n_modes=(3, 3, 3)),
        ],
        ids=["3d_potential_2_torus_verify", "3d_potential_2_torus_integral", "2d_potential_3_torus_verify"],
    )
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="dimensional potential on a"):
            call()


class TestVerifyBound:
    def test_constant_enumeration_case(self):
        pot = torus.ScalarPotentialD(constant_coeffs(2.0, d=2))
        geom = torus.TorusGeometry((1.0, 1.0))
        report = torus.verify_bound_torus([pot], geom, 1.0, n_modes=(8, 8))[0]
        assert report.lhs == 2.0
        assert report.rhs == pytest.approx(2.0 * math.pi**3 / 3.0, rel=1e-12)
        assert report.passed
        assert report.metadata["unit_regime"] is True

    def test_elongated_constant(self):
        pot = torus.ScalarPotentialD(constant_coeffs(2.0, d=2))
        geom = torus.TorusGeometry((0.25, 1.0))
        report = torus.verify_bound_torus([pot], geom, 1.0, n_modes=(12, 4))[0]
        # negative modes now include elongated-axis excitations
        expected_lhs = riesz_mean_of(torus_constant_potential_eigs(2.0, (0.25, 1.0), 12), 1.0)
        assert report.lhs == pytest.approx(expected_lhs, rel=1e-12)
        assert report.passed

    def test_alpha_robustness_fixed_potential(self):
        pot = torus.ScalarPotentialD.random(2, 1, 1.0, [5])[0]
        for a1 in (1.0, 0.5, 0.25, 0.125):
            geom = torus.TorusGeometry((a1, 1.0))
            report = torus.verify_bound_torus([pot], geom, 1.0, n_modes=(14, 8))[0]
            assert report.passed, report.to_dict()

    def test_random_suite(self):
        for seed in range(6):
            gamma = (1.0, 2.0)[seed % 2]
            pot = torus.ScalarPotentialD.random(2, 1, 1.0, [seed])[0]
            geom = torus.TorusGeometry(((0.5, 1.0)[seed % 2], 1.0))
            report = torus.verify_bound_torus([pot], geom, gamma, n_modes=(8, 8), seeds=[seed])[0]
            assert report.passed, report.to_dict()

    @pytest.mark.parametrize("gamma", [1.5, 2.0])
    def test_strong_suite_above_gamma_one(self, gamma):
        # gamma >= 3/2 is where Laptev and Weidl make the classical constant
        # sharp; scale 3 reaches worst ratios 0.274 (gamma 1.5) and 0.271
        # (gamma 2), so a constant 4x too small above gamma 1 fails here.
        geom = torus.TorusGeometry((1.0, 1.0))
        worst = 0.0
        for seed in range(8):
            pots = torus.ScalarPotentialD.random(2, 1, 3.0, [seed])
            report = torus.verify_bound_torus(pots, geom, gamma, seeds=[seed])[0]
            assert report.passed and report.metadata["truncation"] == [14, 14], report.to_dict()
            worst = max(worst, report.ratio)
        assert worst > 0.26

    @staticmethod
    def _assert_spectrum(v_2d, geom, n_modes, eigs, case):
        """The torus lhs and negative count of V on the box n_modes are those of the spectrum eigs."""
        for gamma in (1.0, 2.0):
            report = torus.verify_bound_torus([torus.ScalarPotentialD(v_2d)], geom, gamma, n_modes=n_modes)[0]
            want = riesz_mean_of(eigs, gamma)
            assert report.metadata["negative_count"] == np.count_nonzero(eigs < 0), (*case, gamma)
            if want == 0.0:
                assert report.lhs == 0.0, (*case, gamma)
            else:
                assert abs(report.lhs - want) <= 1e-11 * want, (*case, gamma)

    @staticmethod
    def _seeds_and_scales(alpha):
        # At alpha = 1/16 the box (96, 6) has 2,316 rows, and each of its
        # solves takes about 0.6 s, so it runs one seed at one scale: one
        # with 62 negative eigenvalues on the separable V and 50 on the long-axis V.
        return [(1, 1.0)] if alpha < 0.25 else [(seed, scale) for seed in range(4) for scale in (0.3, 1.0, 3.0)]

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25, 0.0625])
    def test_separable_potential_matches_the_1d_spectrum(self, alpha):
        # V(theta_1, theta_2) = v(theta_2) splits the operator by k_1 into
        # alpha^2 k_1^2 plus the zero-mean 1D operator -d^2 - P v P, so on
        # the box (ceil(n/alpha), n) the spectrum is {alpha^2 k_1^2 + nu_j}.
        # The identity holds on any box, so n = 6 need not grow like 1/alpha.
        n = 6
        n_1 = math.ceil(n / alpha)
        geom = torus.TorusGeometry((alpha, 1.0))
        for seed, scale in self._seeds_and_scales(alpha):
            v = spectral1d._psd_coeffs(1, 1, 1, scale, [seed])[0]
            form = spectral1d._form("subtract", 0.0)
            nu = np.linalg.eigvalsh(form.enclosure(spectral1d.MatrixPotential(v), n)[0])
            eigs = (alpha**2 * np.arange(-n_1, n_1 + 1)[:, None] ** 2 + nu).ravel()
            self._assert_spectrum(v[None], geom, (n_1, n), eigs, (seed, scale))

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25, 0.0625])
    def test_long_axis_potential_matches_the_1d_spectrum(self, alpha):
        # V(theta_1, theta_2) = v(theta_1) commutes with the projection and
        # splits the operator by k_2 into k_2^2 plus the unprojected 1D
        # operator -alpha^2 d^2 - v, so on the same box the spectrum is
        # {k_2^2 + mu_j : 1 <= |k_2| <= n}.
        n = 6
        n_1 = math.ceil(n / alpha)
        geom = torus.TorusGeometry((alpha, 1.0))
        k_2 = np.concatenate((-np.arange(1, n + 1), np.arange(1, n + 1)))
        for seed, scale in self._seeds_and_scales(alpha):
            v = spectral1d._psd_coeffs(1, 1, 1, scale, [seed])[0]
            line = spectral1d._lattice_operator(spectral1d.MatrixPotential(v), (alpha,), 0.0, (n_1,), False)[0]
            eigs = (k_2[:, None] ** 2 + np.linalg.eigvalsh(line)).ravel()
            self._assert_spectrum(v[:, None], geom, (n_1, n), eigs, (seed, scale))

    def test_three_dimensional_instance(self):
        pot = torus.ScalarPotentialD.random(3, 1, 0.8, [1])[0]
        geom = torus.TorusGeometry((0.5, 0.75, 1.0))
        report = torus.verify_bound_torus([pot], geom, 1.0, n_modes=(5, 5, 5), seeds=[1])[0]
        assert report.passed
        assert report.metadata["d"] == 3
        assert report.metadata["unit_regime"] is True

    def test_three_dimensional_constant_enumeration(self):
        pot = torus.ScalarPotentialD(constant_coeffs(2.0, d=3))
        geom = torus.TorusGeometry((1.0, 1.0, 1.0))
        report = torus.verify_bound_torus([pot], geom, 1.0, n_modes=(4, 4, 4))[0]
        expected_lhs = riesz_mean_of(
            torus_constant_potential_eigs(2.0, (1.0, 1.0, 1.0), 4), 1.0
        )
        assert report.lhs == pytest.approx(expected_lhs, rel=1e-13)
        assert report.passed

    def test_rayleigh_ritz_monotonicity_per_axis(self):
        pot = torus.ScalarPotentialD.random(2, 1, 1.5, [2])[0]
        geom = torus.TorusGeometry((0.5, 1.0))
        means = []
        for n in ((3, 3), (6, 6), (12, 12)):
            a = torus.assemble_torus_operator(pot, geom, n)
            means.append(riesz_mean(negative_spectrum(a), 1.0))
        assert means[0] <= means[1] + 1e-12
        assert means[1] <= means[2] + 1e-12

    def test_mixed_bands_report_as_alone(self):
        # each report keeps its own truncation and quadrature grid
        geom = torus.TorusGeometry((0.5, 1.0))
        pots = [torus.ScalarPotentialD.random(2, band, 1.0, [band])[0] for band in (1, 2)]
        together = torus.verify_bound_torus(pots, geom, 1.0, seeds=[1, 2])
        assert [report.metadata["truncation"] for report in together] == [[14, 14], [16, 16]]
        for pot, seed, report in zip(pots, (1, 2), together):
            alone = torus.verify_bound_torus([pot], geom, 1.0, seeds=[seed])[0]
            assert json.dumps(report.to_dict()) == json.dumps(alone.to_dict())

    def test_each_potential_is_integrated_after_its_eigensolve(self, monkeypatch):
        # integrating every potential first would hold each one's grid
        # beside the first eigensolve
        log = []
        solve, integrate = spectral1d.negative_spectrum, torus.potential_power_integral

        def solving(matrix):
            log.append("solve")
            return solve(matrix)

        def integrating(*args):
            log.append("integrate")
            return integrate(*args)

        monkeypatch.setattr(spectral1d, "negative_spectrum", solving)
        monkeypatch.setattr(torus, "potential_power_integral", integrating)
        pots = torus.ScalarPotentialD.random(2, 1, 1.0, [0, 1, 2])
        torus.verify_bound_torus(pots, torus.TorusGeometry((0.5, 1.0)), 1.0, n_modes=(6, 6))
        assert log == ["solve", "integrate"] * 3

    def test_metadata_echo(self):
        pot = torus.ScalarPotentialD(constant_coeffs(1.0, d=2))
        geom = torus.TorusGeometry((0.5, 1.0))
        report = torus.verify_bound_torus([pot], geom, 1.0, n_modes=(4, 4), seeds=[3])[0]
        for key in ("d", "alphas", "betas", "delta", "unit_regime", "seed"):
            assert key in report.metadata


class TestWorkspace:
    """verify_bound_torus refills one matrix per thread; the public assembler
    still returns arrays that belong to the caller."""

    GEOM = torus.TorusGeometry((0.5, 1.0))

    def test_assembled_matrices_stay_the_callers(self):
        pots = torus.ScalarPotentialD.random(2, 1, 1.0, [0, 1])
        torus.verify_bound_torus(pots[:1], self.GEOM, 1.0, n_modes=(6, 6))  # leaves a spare matrix
        first, second = (torus.assemble_torus_operator(pot, self.GEOM, (6, 6)) for pot in pots)
        assert not np.shares_memory(first, second)
        kept = first.copy(), second.copy()
        torus.verify_bound_torus(pots, self.GEOM, 1.0, n_modes=(6, 6))
        assert np.array_equal(first, kept[0]) and np.array_equal(second, kept[1])
        assert not np.array_equal(first, second)

    def test_threads_match_sequential_reports(self):
        pots = [torus.ScalarPotentialD.random(2, 1, 1.0 + seed, [seed])[0] for seed in range(4)]

        def reports(chunk):
            return [torus.verify_bound_torus([pot], self.GEOM, 1.0, seeds=[i])[0].to_dict() for i, pot in chunk]

        items = list(enumerate(pots))
        want = reports(items)
        got = {}
        threads = [threading.Thread(target=lambda k=k: got.update({k: reports(items[k::2])})) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got[0] + got[1] == want[0::2] + want[1::2]

    def test_a_thread_never_refills_another_threads_spare(self):
        # thread A leaves its spare, then thread B verifies on the same box: a
        # spare held per process would hand A's matrix to B
        pot = torus.ScalarPotentialD.random(2, 1, 1.0, [0])[0]
        spares = []

        def verify():
            torus.verify_bound_torus([pot], self.GEOM, 1.0, n_modes=(6, 6))
            spares.append(spectral1d._spare.matrix)

        for _ in range(2):
            thread = threading.Thread(target=verify)
            thread.start()
            thread.join()
        assert spares[0].shape == spares[1].shape
        assert not np.shares_memory(*spares)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="page-fault counts of Linux getrusage")
    def test_verification_reuses_its_matrix(self):
        import resource  # POSIX only

        # CLI defaults: W band 2, V band 4, 1,056 rows of 8-byte entries
        pot = torus.ScalarPotentialD.random(2, 2, 1.0, [0])[0]
        geom = torus.TorusGeometry((1.0, 1.0))
        torus.verify_bound_torus([pot], geom, 1.0)  # warm-up
        calls = 3
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        torus.verify_bound_torus([pot] * calls, geom, 1.0)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls
        pages = 1056 * 1056 * 8 / 4096
        assert faults < pages / 4, faults
