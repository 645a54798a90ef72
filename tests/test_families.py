import math

import numpy as np
import pytest

from ltbounds import families, interp, spectral1d

from oracles import family_values, rho_cubed_loop

TWO_PI = 2.0 * math.pi


def cos_sin_family():
    """{cos x / sqrt(pi), sin x / sqrt(pi)} on the 2*pi circle."""
    coeffs = np.zeros((2, 3, 1), dtype=complex)
    r = 1.0 / math.sqrt(2.0)
    coeffs[0, 2, 0] = r       # cos: (chi_1 + chi_-1)/sqrt(2)
    coeffs[0, 0, 0] = r
    coeffs[1, 2, 0] = -1j * r  # sin: (chi_1 - chi_-1)/(i sqrt(2))
    coeffs[1, 0, 0] = 1j * r
    return families.OrthonormalFamily(coeffs)


class TestRandomFamily:
    def test_gram_identity(self):
        for seed in range(5):
            fam = families.random_orthonormal_family(3, 2, 3, False, [seed])[0]
            assert families._gram_defect(fam.coeffs[None])[0] <= 1e-12

    def test_zero_mean_coefficients_vanish(self):
        fam = families.random_orthonormal_family(4, 3, 4, True, [8])[0]
        assert np.all(fam.coeffs[:, 4, :] == 0.0)  # k = 0 of band 4
        assert families._gram_defect(fam.coeffs[None])[0] <= 1e-12

    def test_deterministic(self):
        a = families.random_orthonormal_family(2, 1, 1, True, [3])[0]
        b = families.random_orthonormal_family(2, 1, 1, True, [3])[0]
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_tight_dimension(self):
        # N = 2 members in the 2-dimensional zero-mean space of band 1, M=1.
        fam = families.random_orthonormal_family(2, 1, 1, True, [12])[0]
        assert families._gram_defect(fam.coeffs[None])[0] <= 1e-12

    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            families.random_orthonormal_family(4, 1, 1, False, [0])
        with pytest.raises(ValueError):
            families.random_orthonormal_family(3, 1, 1, True, [0])

    def test_entries_count_against_the_dense_budget(self, monkeypatch):
        # a budget of 6^2 entries: the density of 4 members of band 2 in
        # m = 1 pads to 9 * 4 = 36 of them, its blocks of m = 6 take 1 * 6^2
        monkeypatch.setattr(spectral1d, "ROW_BUDGET", 6)
        assert families.random_orthonormal_family(4, 1, 2, False, [0])[0].coeffs.shape == (4, 5, 1)
        assert families.random_orthonormal_family(0, 6, 0, False, [0])[0].coeffs.shape == (0, 1, 6)
        # 2 members of band 2 in m = 2 pass the family's check (9 * 2 * 2 = 36
        # entries), but the density's grid of 6 * 2 + 1 nodes holds 13 * 2^2
        with pytest.raises(ValueError, match="a grid of 13 nodes exceeds"):
            families.density_and_kinetic([families.OrthonormalFamily(np.zeros((2, 5, 2), complex))], 0.5, "add")

        def refuse(seed):
            raise AssertionError("a family over the budget was drawn")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for n_members, m_dim, band in ((5, 1, 2), (0, 7, 0)):
            with pytest.raises(ValueError, match=f"family of {n_members} members exceeds the dense budget"):
                families.random_orthonormal_family(n_members, m_dim, band, False, [0])
            fam = families.OrthonormalFamily(np.zeros((n_members, 2 * band + 1, m_dim), complex))
            with pytest.raises(ValueError, match=f"family of {n_members} members exceeds"):
                families.density_and_kinetic([fam], 0.5, "add")


class TestDensityAndKinetic:
    def test_cos_sin_closed_form(self):
        fam = cos_sin_family()
        (rho3,), (kinetic,) = families.density_and_kinetic([fam], 0.0, "subtract")
        assert rho3 == pytest.approx(2.0 / math.pi**2, rel=1e-12)
        assert kinetic == pytest.approx(2.0, rel=1e-14)

    def test_constant_modulus_member(self):
        coeffs = np.zeros((1, 5, 1), dtype=complex)
        coeffs[0, 4, 0] = 1.0  # single mode k = 2
        fam = families.OrthonormalFamily(coeffs)
        (rho3,), _ = families.density_and_kinetic([fam], 0.0, "subtract")
        assert rho3 == pytest.approx(1.0 / (4.0 * math.pi**2), rel=1e-12)

    def test_trace_of_u_integrates_to_n(self):
        fam = families.random_orthonormal_family(4, 2, 3, False, [21])[0]
        n = 8 * fam.coeffs.shape[1]
        x = np.arange(n) * (TWO_PI / n)
        vals = family_values(fam.coeffs, 1.0, x)
        u = np.einsum("nxa,nxb->xab", vals, vals.conj())
        tr = np.einsum("xaa->x", u).real
        assert TWO_PI / n * np.sum(tr) == pytest.approx(len(fam.coeffs), rel=1e-12)

    def test_scalar_specialization_matches_density_cube(self):
        # For M = 1 the matrix trace collapses to the scalar density cubed.
        fam = families.random_orthonormal_family(3, 1, 3, True, [33])[0]
        (rho3,), _ = families.density_and_kinetic([fam], 0.25, "subtract")
        n = 16 * fam.coeffs.shape[1]
        x = np.arange(n) * (TWO_PI / n)
        vals = family_values(fam.coeffs, 1.0, x)[:, :, 0]
        rho = np.sum(np.abs(vals) ** 2, axis=0)
        direct = TWO_PI / n * float(np.sum(rho**3))
        assert rho3 == pytest.approx(direct, abs=1e-10)

    def test_matches_the_member_loop_oracle(self):
        # 40 random families against the member-by-member density cube on
        # the same doubled grid of 16 nodes per family mode.
        rng = np.random.default_rng(2024)
        for i in range(40):
            m_dim, band = int(rng.integers(1, 4)), int(rng.integers(0, 4))
            mode = ("add", "subtract")[i % 2]
            capacity = m_dim * (2 * band if mode == "subtract" else 2 * band + 1)
            n = min(int(rng.integers(0, 4)), capacity)
            alpha = 1.0 if mode == "subtract" else (1.0, 0.25)[(i // 2) % 2]
            fam = families.random_orthonormal_family(n, m_dim, band, mode == "subtract", [i])[0]
            (rho3,), _ = families.density_and_kinetic([fam], 0.5, mode, alpha)
            want = rho_cubed_loop(fam.coeffs, alpha, 16 * (2 * band + 1))
            assert abs(rho3 - want) <= 1e-12 * abs(want), (i, n, m_dim, band, mode, alpha)

    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_node_rule_is_exact_and_minimal(self, zero_mean):
        # Tr U^3 has degree 6b: the rectangle rule on N = 6b + 1 nodes agrees
        # with 2N nodes and with the doubled quadrature of Tr V_+^3, while
        # 6b nodes alias.  Only families below capacity have a non-constant
        # density, so only they can show the aliasing.
        def node_rule(coeffs, alpha, nodes):
            density = spectral1d._autocorrelation(math.sqrt(alpha / TWO_PI) * np.moveaxis(coeffs[None], 1, -1))
            evs = spectral1d._block_eigvalsh(spectral1d._values_on_grid(density, (nodes,)))
            return density, TWO_PI / alpha / nodes * float(np.sum(evs**3))

        mode = "subtract" if zero_mean else "add"
        for m_dim in (1, 2, 3):
            for band in (1, 2, 3, 4):
                capacity = m_dim * (2 * band if zero_mean else 2 * band + 1)
                for n in sorted({1, capacity // 2, capacity - 1}):
                    for alpha in (1.0,) if zero_mean else (1.0, 0.5):
                        case = (m_dim, band, n, alpha)
                        seed = 100 * band + 10 * m_dim + n
                        fam = families.random_orthonormal_family(n, m_dim, band, zero_mean, [seed])[0]
                        (lhs,), _ = families.density_and_kinetic([fam], 0.5, mode, alpha)
                        density, exact = node_rule(fam.coeffs, alpha, 6 * band + 1)
                        assert exact == lhs, case
                        assert abs(node_rule(fam.coeffs, alpha, 12 * band + 2)[1] - lhs) <= 1e-14 * lhs, case
                        quadrature = spectral1d._power_integral(density, 3, TWO_PI / alpha, (8 * (2 * band + 1),))
                        assert abs(float(quadrature[0]) - lhs) <= 1e-13 * lhs, case
                        assert abs(node_rule(fam.coeffs, alpha, 6 * band)[1] - lhs) > 1e-12 * lhs, case

    @pytest.mark.parametrize("band", [0, 1])
    def test_empty_components(self, band):
        # zero-width (0, 0) density blocks: an empty spectrum, not an IndexError
        fam = families.random_orthonormal_family(0, 0, band, False, [0])[0]
        (lhs,), (kinetic,) = families.density_and_kinetic([fam], 0.5, "add")
        assert (lhs, kinetic) == (0.0, 0.0)

    def test_mode_preconditions(self):
        fam = families.random_orthonormal_family(2, 1, 2, False, [2])[0]
        with pytest.raises(ValueError):
            families.density_and_kinetic([fam], 0.5, "subtract")  # not zero-mean
        with pytest.raises(ValueError):
            families.density_and_kinetic([fam], 0.0, "add")  # beta must be > 0
        with pytest.raises(ValueError):
            families.density_and_kinetic([fam], 0.5, "frobnicate")

    def test_subtract_mode_needs_alpha_one(self):
        fam = cos_sin_family()
        with pytest.raises(ValueError, match="alpha = 1"):
            families.density_and_kinetic([fam], 0.5, "subtract", alpha=0.5)


class TestVerifyTrace1:
    def test_random_family(self):
        fam = families.random_orthonormal_family(3, 2, 3, False, [1])[0]
        report = families.verify_trace1([fam], 1.0, 0.5)[0]
        assert report.passed
        assert report.constant_used == pytest.approx(1.0)  # K1(0.5) = 1

    def test_elongated_period(self):
        alpha = 0.25
        fam = families.random_orthonormal_family(3, 2, 3, False, [2])[0]
        report = families.verify_trace1([fam], alpha, 0.5)[0]
        assert report.passed

    def test_single_member(self):
        fam = families.random_orthonormal_family(1, 1, 2, False, [3])[0]
        assert families.verify_trace1([fam], 1.0, 1.0)[0].passed


class TestVerifyTrace2:
    def test_cos_sin_closed_form(self):
        fam = cos_sin_family()
        report = families.verify_trace2([fam], 0.0)[0]
        assert report.lhs == pytest.approx(2.0 / math.pi**2, abs=1e-10)
        assert report.rhs == pytest.approx(2.0, rel=1e-12)
        assert report.passed

    def test_cos_sin_near_threshold(self):
        fam = cos_sin_family()
        report = families.verify_trace2([fam], 0.839)[0]
        # kinetic = 2(1 - 0.839) and K2(0.839) = 1
        assert report.rhs == pytest.approx(2.0 * (1.0 - 0.839), rel=1e-10)
        assert report.passed

    def test_zero_mean_is_read_from_the_coefficients(self):
        coeffs = np.zeros((1, 3, 1), dtype=complex)
        coeffs[0, 1, 0] = 1.0  # the constant member, whose mean is not zero
        constant = families.OrthonormalFamily(coeffs)
        assert np.any(constant.coeffs[:, 1, :])
        with pytest.raises(ValueError, match="zero-mean"):
            families.verify_trace2([constant], 0.0)
        fam = cos_sin_family()
        assert not np.any(fam.coeffs[:, 1, :])
        assert families.verify_trace2([fam], 0.0)[0].passed

    def test_randomized_suite(self):
        for seed in range(20):
            beta = (0.0, 0.5, 0.839)[seed % 3]
            fam = families.random_orthonormal_family(4, 3, 4, True, [seed])[0]
            report = families.verify_trace2([fam], beta, seeds=[seed])[0]
            assert report.passed, report.to_dict()
            assert report.ratio <= 1.0

    def test_degenerate_empty_family(self):
        fam = families.random_orthonormal_family(0, 2, 2, True, [0])[0]
        report = families.verify_trace2([fam], 0.5)[0]
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.passed

    def test_suborthonormal_stability(self):
        # Member-wise projection onto a random coefficient subspace keeps the
        # bound valid (suborthonormal families do not increase constants).
        fam = families.random_orthonormal_family(4, 2, 3, True, [77])[0]
        rng = np.random.default_rng(5)
        flat = fam.coeffs.reshape(len(fam.coeffs), -1)
        dim = flat.shape[1]
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim // 2)) + 1j * rng.standard_normal((dim, dim // 2)))
        projector = q @ q.conj().T
        projected = (flat @ projector).reshape(fam.coeffs.shape)
        projected[:, 3, :] = 0.0  # keep the zero-mean constraint exact (k = 0 of band 3)
        sub = families.OrthonormalFamily(projected)
        for beta in (0.0, 0.5, 0.839):
            assert families.verify_trace2([sub], beta)[0].passed


class TestVerifyInterpolation:
    def test_cos_subtract(self):
        coeffs = np.zeros(3, dtype=complex)
        coeffs[0] = coeffs[2] = math.sqrt(math.pi / 2.0)  # u = cos x
        report = families.verify_interpolation(coeffs, "subtract", 0.0)
        assert report.lhs == pytest.approx(1.0, rel=1e-12)
        assert report.rhs == pytest.approx(math.pi, rel=1e-12)
        assert report.passed

    def test_complex_two_mode_add(self):
        # u = e^{ix} + e^{2ix} in the raw exponential basis: coefficients
        # sqrt(2 pi) in the orthonormal basis.
        coeffs = np.zeros(5, dtype=complex)
        coeffs[3] = coeffs[4] = math.sqrt(TWO_PI)
        report = families.verify_interpolation(coeffs, "add", 0.5, alpha=1.0)
        # sup |u|^2 = 4 at x = 0 (aligned phases)
        assert report.lhs == pytest.approx(4.0, rel=1e-9)
        norm2 = 2.0 * TWO_PI
        quad = TWO_PI * ((1.0 + 0.5) + (4.0 + 0.5))
        assert report.rhs == pytest.approx(
            interp.k1(0.5).value * math.sqrt(quad) * math.sqrt(norm2), rel=1e-12
        )
        assert report.passed

    def test_near_extremal_random_search(self):
        # Search for a high-ratio zero-mean function at the K2 threshold:
        # random draws plus perturbations of the resolvent profile
        # c_k ~ 1/(k^2 - beta + lam*), which is extremal in the band->inf
        # limit.  All ratios must stay at or below 1.
        bss = interp.beta_star_star(1e-6)
        grid = np.geomspace(1e-4, 1e3, 20001)
        lam = float(grid[np.argmax(interp.f_objective(grid, bss))])
        band = 16
        ks = np.arange(-band, band + 1, dtype=float)
        profile = 1.0 / (ks**2 - bss + lam)
        profile[band] = 0.0
        rng = np.random.default_rng(11)
        worst = 0.0
        for trial in range(120):
            if trial == 0:
                c = profile.astype(complex)
            else:
                noise = rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))
                c = profile + 10.0 ** rng.uniform(-3, 0) * noise * np.abs(profile)
                c[band] = 0.0
            report = families.verify_interpolation(c, "subtract", bss)
            worst = max(worst, report.ratio)
            assert report.passed
        assert worst <= 1.0 + 1e-9
        assert worst > 0.9  # the search gets genuinely close to sharpness

    def test_preconditions(self):
        coeffs = np.array([0.1, 1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            families.verify_interpolation(coeffs, "subtract", 0.5)  # mean not zero
        with pytest.raises(ValueError):
            families.verify_interpolation(np.array([1.0, 2.0]), "add", 0.5)
        with pytest.raises(ValueError):
            families.verify_interpolation(np.array([0.0, 1.0, 0.0]), "add", 0.0)
        with pytest.raises(ValueError, match=r"delta in \[0, 1\), got 1.0"):
            families.verify_interpolation(np.array([1.0, 0.0, 1.0]), "subtract", 1.0)


class TestRandomizedTraceSuite:
    def test_mixed_suite_with_ratio_log(self):
        ratios = []
        for seed in range(30):
            n = 1 + seed % 4
            m = 1 + seed % 3
            band = 2 + seed % 3
            fam = families.random_orthonormal_family(n, m, band, False, [100 + seed])[0]
            r1 = families.verify_trace1([fam], 1.0, 0.3 + 0.1 * (seed % 5))[0]
            assert r1.passed
            ratios.append(r1.ratio)
            fam2 = families.random_orthonormal_family(n, m, band, True, [200 + seed])[0]
            r2 = families.verify_trace2([fam2], 0.1 * (seed % 9))[0]
            assert r2.passed
            ratios.append(r2.ratio)
        assert max(ratios) <= 1.0
