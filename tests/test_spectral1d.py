import math
import warnings

import numpy as np
import pytest

from ltbounds import spectral1d as sp1
from ltbounds import torus
from ltbounds.reports import PASS_SLACK, ConvergenceError

from oracles import (
    constant_coeffs,
    direct_sum_on_grid,
    galerkin_loop,
    h1_constant_potential_eigs,
    h2_constant_potential_eigs,
    psd_coeffs_1d_loop,
    psd_coeffs_torus_loop,
    real_form,
)

TWO_PI = 2.0 * math.pi


def _hermitized_conjugation(pot, unitary):
    """Conjugate every coefficient by a constant unitary, keeping the exact
    adjoint pairing of the coefficient family."""
    coeffs = np.zeros_like(pot.coeffs)
    b = pot.bands[0]
    for m in range(0, b + 1):
        c = unitary @ pot.coeffs[m + b] @ unitary.conj().T
        if m == 0:
            c = 0.5 * (c + c.conj().T)
            coeffs[b] = c
        else:
            coeffs[b + m] = c
            coeffs[b - m] = c.conj().T
    return sp1.MatrixPotential(coeffs)


class TestRandomPotential:
    def test_deterministic(self):
        a = sp1.random_psd_potential(2, 2, 1.0, [42])[0]
        b = sp1.random_psd_potential(2, 2, 1.0, [42])[0]
        assert np.array_equal(a.coeffs, b.coeffs)
        c = sp1.random_psd_potential(2, 2, 1.0, [43])[0]
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_band_zero_is_constant(self):
        pot = sp1.random_psd_potential(1, 0, 0.7, [5])[0]
        assert pot.bands[0] == 0
        vals = sp1._values_on_grid(pot.coeffs[None], (17,))[0, :, 0, 0]
        assert np.allclose(vals, vals[0])
        assert vals[0].real > 0.0

    def test_pointwise_psd(self):
        pot = sp1.random_psd_potential(2, 2, 1.0, [42])[0]
        evs = np.linalg.eigvalsh(sp1._values_on_grid(pot.coeffs[None], (512,))[0])
        assert float(np.min(evs)) >= -1e-10 * max(1.0, float(np.max(evs)))

    def test_band_doubles(self):
        pot = sp1.random_psd_potential(3, 4, 0.5, [0])[0]
        assert pot.bands[0] == 8
        assert pot.coeffs.shape == (17, 3, 3)

    def test_exact_adjoint_pairs(self):
        pot = sp1.random_psd_potential(3, 3, 1.0, [11])[0]
        b = pot.bands[0]
        for k in range(1, b + 1):
            assert np.array_equal(pot.coeffs[-k + b], pot.coeffs[k + b].conj().T)

    def test_validate_rejects_a_sign_changing_potential(self):
        coeffs = np.array([0.5, 0.0, 0.5], dtype=complex).reshape(3, 1, 1)  # V = cos(theta)
        pot = sp1.MatrixPotential(coeffs)
        with pytest.raises(ValueError, match="PSD"):
            sp1._validate(pot.coeffs[None])

    @pytest.mark.parametrize("m_dim", [2, 3])
    def test_validate_rejects_a_small_negative_dip_in_a_block(self, m_dim):
        # A rotated diag(2, ..., 1 + cos(theta) -+ eps): the smallest pointwise
        # eigenvalue dips to -eps = -1e-8 of the largest at theta = pi, or
        # stays at +eps.  The rotation mixes every entry, so the 2x2 closed
        # form must resolve the dip through a cancellation, not read it off
        # the diagonal.
        eps = 2e-8
        rng = np.random.default_rng(m_dim)
        unitary, _ = np.linalg.qr(rng.standard_normal((m_dim, m_dim))
                                  + 1j * rng.standard_normal((m_dim, m_dim)))
        for sign, rejected in ((-1.0, True), (1.0, False)):
            coeffs = np.zeros((3, m_dim, m_dim), dtype=complex)
            coeffs[1] = np.diag([2.0] * (m_dim - 1) + [1.0 + sign * eps])
            coeffs[0, -1, -1] = coeffs[2, -1, -1] = 0.5
            pot = _hermitized_conjugation(sp1.MatrixPotential(coeffs), unitary)
            if rejected:
                with pytest.raises(ValueError, match="PSD"):
                    sp1._validate(pot.coeffs[None])
            else:
                sp1._validate(pot.coeffs[None])

    def test_validate_rejects_values_that_overflow_on_the_grid(self):
        # V = 1e308 (1 + 2 cos theta): finite coefficients whose grid values
        # overflow to inf and NaN, which no PSD comparison catches
        pot = sp1.MatrixPotential(np.full((3, 1, 1), 1e308, dtype=complex))
        with pytest.raises(ValueError, match="overflows on its sample grid"):
            sp1._validate(pot.coeffs[None])

    def test_non_finite_coefficients_rejected_first(self):
        coeffs = np.array([np.nan, 1.0, 0.9], dtype=complex).reshape(3, 1, 1)  # also unpaired
        with pytest.raises(ValueError, match="coefficients must be finite"):
            sp1.MatrixPotential(coeffs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_width_blocks_validate(self, d):
        sp1._validate(sp1.MatrixPotential(np.zeros((3,) * d + (0, 0), complex)).coeffs[None])

    def test_validation_rejects_bad_params(self):
        with pytest.raises(ValueError):
            sp1.random_psd_potential(0, 1, 1.0, [0])
        with pytest.raises(ValueError):
            sp1.random_psd_potential(1, 1, 0.0, [0])
        # rejected by the guard, before the draw's autocorrelation warns
        with pytest.raises(ValueError, match="invalid potential parameters"):
            sp1.random_psd_potential(2, 1, math.nan, [0])


def _assert_parity(got, want):
    # same coefficients up to summation order, and the pairing exact
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= 1e-14 * float(np.max(np.abs(want)))
    lattice = tuple(range(got.ndim - 2))
    assert np.array_equal(np.flip(got, lattice), got.conj().swapaxes(-1, -2))


def _random_hermitian(rng, count, m_dim, scale=1.0):
    x = rng.standard_normal((count, m_dim, m_dim)) + 1j * rng.standard_normal((count, m_dim, m_dim))
    return scale * (x + x.conj().swapaxes(-1, -2))


class TestBlockEigvalsh:
    """The closed forms for 1x1 and 2x2 blocks against np.linalg.eigvalsh."""

    @pytest.mark.parametrize("m_dim", [1, 2, 3])
    def test_matches_eigvalsh_on_random_grids(self, m_dim):
        values = _random_hermitian(np.random.default_rng(m_dim), 2000, m_dim).reshape(40, 50, m_dim, m_dim)
        got, want = sp1._block_eigvalsh(values), np.linalg.eigvalsh(values)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.all(np.diff(got, axis=-1) >= 0.0)
        if m_dim == 2:
            norm = np.max(np.abs(want), axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-14 * norm)
        else:
            assert np.array_equal(got, want)

    def test_double_eigenvalue(self):
        values = np.array([[[0.7, 0.0], [0.0, 0.7]], [[-3.0, 0.0], [0.0, -3.0]]], dtype=complex)
        assert np.array_equal(sp1._block_eigvalsh(values), [[0.7, 0.7], [-3.0, -3.0]])

    def test_rank_one_psd_blocks(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((5000, 2)) + 1j * rng.standard_normal((5000, 2))
        v *= np.exp(rng.uniform(-30.0, 30.0, (5000, 1)))  # magnitudes across 26 decades
        evs = sp1._block_eigvalsh(v[:, :, None] * v[:, None, :].conj())
        assert np.all(evs[:, 0] >= -1e-15 * evs[:, 1])
        assert np.all(evs[:, 0] <= 1e-15 * evs[:, 1])

    def test_zero_blocks(self):
        for m_dim in (1, 2):
            out = sp1._block_eigvalsh(np.zeros((4, m_dim, m_dim), dtype=complex))
            assert np.array_equal(out, np.zeros((4, m_dim)))

    def test_rounding_level_imaginary_diagonal_is_ignored(self):
        values = _random_hermitian(np.random.default_rng(3), 500, 2)
        noisy = values.copy()
        noisy[:, [0, 1], [0, 1]] += 1e-16j * np.abs(values[:, [0, 1], [0, 1]])
        assert np.array_equal(sp1._block_eigvalsh(noisy), sp1._block_eigvalsh(values))
        assert np.array_equal(np.linalg.eigvalsh(noisy), np.linalg.eigvalsh(values))

    def test_lower_triangle_is_read(self):
        values = np.array([[[1.0, 5.0], [2.0, 1.0]]], dtype=complex)
        assert np.array_equal(sp1._block_eigvalsh(values), np.linalg.eigvalsh(values))
        assert np.array_equal(sp1._block_eigvalsh(values), [[-1.0, 3.0]])

    def test_huge_entries_stay_finite(self):
        values = _random_hermitian(np.random.default_rng(5), 500, 2, scale=1e300)
        # equal diagonals at 1.7e308, whose plain sum a + d would overflow
        values[:5] = np.diag([1.7e308, 1.7e308])
        values[5:10, 1, 0] = values[5:10, 0, 1] = 1e308
        got, want = sp1._block_eigvalsh(values), np.linalg.eigvalsh(values)
        finite = np.isfinite(want)
        assert finite.all() and np.isfinite(got).all()
        norm = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * norm)


class TestGeneratorParity:
    @pytest.mark.parametrize("m_dim", [1, 2, 3])
    @pytest.mark.parametrize("band", [0, 1, 2])
    def test_matches_1d_loop_oracle(self, m_dim, band):
        for seed in range(5):
            want = psd_coeffs_1d_loop(m_dim, band, 1.0, seed)
            _assert_parity(sp1._psd_coeffs(1, m_dim, band, 1.0, [seed])[0], want)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("band", [0, 1])
    def test_matches_torus_loop_oracle(self, d, band):
        for seed in range(5):
            want = psd_coeffs_torus_loop(d, band, 1.0, seed)[..., None, None]
            _assert_parity(sp1._psd_coeffs(d, 1, band, 1.0, [seed])[0], want)

    def test_matches_torus_loop_oracle_at_the_cli_default_band(self):
        for seed in range(5):
            want = psd_coeffs_torus_loop(2, 2, 1.0, seed)[..., None, None]
            _assert_parity(sp1._psd_coeffs(2, 1, 2, 1.0, [seed])[0], want)

    @pytest.mark.parametrize("m_dim, rank", [(1, 0), (2, 0), (1, 3), (2, 3), (3, 1), (3, 2)])
    def test_family_shapes_match_a_double_loop(self, m_dim, rank):
        # a density W W^H of `rank` members with (2b+1, m_dim) coefficients
        band = 2
        w = np.random.default_rng(rank + 10 * m_dim).standard_normal((2 * band + 1, m_dim, rank, 2)) @ [1, 1j]
        want = np.zeros((4 * band + 1, m_dim, m_dim), dtype=complex)
        for m in range(-2 * band, 2 * band + 1):
            for k in range(max(-band, m - band), min(band, m + band) + 1):
                want[m + 2 * band] += w[k + band] @ w[k - m + band].conj().T
        _assert_parity(sp1._autocorrelation(w[None])[0], want)  # rank 0: exactly zero

    @pytest.mark.parametrize("d, m_dim", [(1, 2), (1, 3), (2, 1)])
    def test_scale_near_1e150_stays_finite_without_a_warning(self, d, m_dim):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sp1._psd_coeffs(d, m_dim, 2, 1e150, [3])[0]
        want = psd_coeffs_1d_loop(m_dim, 2, 1e150, 3) if d == 1 else psd_coeffs_torus_loop(d, 2, 1e150, 3)
        assert np.all(np.isfinite(got))
        _assert_parity(got, want.reshape(got.shape))


class TestTracePowerIntegral:
    def test_constant_scalar(self):
        pot = sp1.MatrixPotential(constant_coeffs(2.0))
        val = sp1._power_integral(pot.coeffs[None], 1.5, TWO_PI, (8,))[0]
        assert val == pytest.approx(TWO_PI * 2.0**1.5, rel=1e-14)

    def test_constant_diagonal(self):
        coeffs = np.zeros((1, 2, 2), dtype=complex)
        coeffs[0] = np.diag([0.5, 3.0])
        pot = sp1.MatrixPotential(coeffs)
        for p in (1.0, 1.5, 2.5):
            val = sp1._power_integral(pot.coeffs[None], p, TWO_PI, (8,))[0]
            assert val == pytest.approx(TWO_PI * (0.5**p + 3.0**p), rel=1e-13)

    def test_grid_doubling_stable(self):
        pot = sp1.random_psd_potential(2, 3, 1.0, [3])[0]
        a = sp1.trace_power_integral([pot], 1.5, TWO_PI)[0]
        b = sp1._power_integral(pot.coeffs[None], 1.5, TWO_PI, (64 * (2 * pot.bands[0] + 1),))[0]
        assert a == pytest.approx(b, rel=1e-8)

    def test_convergence_flag_fires_on_coarse_grid(self):
        # seed 0 has a near-degenerate eigenvalue branch; at 8x oversampling
        # the fractional-power kink still moves the integral above the flag.
        pot = sp1.random_psd_potential(2, 2, 1.0, [0])[0]
        with pytest.raises(ConvergenceError):
            sp1._power_integral(pot.coeffs[None], 1.5, TWO_PI, (8 * (2 * pot.bands[0] + 1),))[0]
        sp1.trace_power_integral([pot], 1.5, TWO_PI)  # default grid is fine

    @pytest.mark.parametrize("d, m_dim", [(1, 1), (1, 2), (1, 3), (2, 1)])
    def test_one_grid_evaluation_per_call(self, monkeypatch, d, m_dim):
        pot = sp1.MatrixPotential(sp1._psd_coeffs(d, m_dim, 1, 1.0, [4])[0])
        grids, pairs = [], []
        evaluate = sp1._values_on_grid

        def counted(coeffs, nodes):
            grids.append(tuple(nodes))
            return evaluate(coeffs, nodes)

        monkeypatch.setattr(sp1, "_values_on_grid", counted)
        monkeypatch.setattr(sp1, "_check_doubling", lambda a, b, _: pairs.append((a, b)))
        nodes = (4 * (2 * pot.bands[0] + 1),) * d
        p = 1.5
        refined = sp1._power_integral(pot.coeffs[None], p, 3.0, nodes)[0]
        assert grids == [tuple(2 * n for n in nodes)]
        (coarse, passed), = pairs
        assert passed == refined
        # the coarse rule read off the refined pass is the rule on its own grid
        evs = np.clip(sp1._block_eigvalsh(evaluate(pot.coeffs[None], nodes)[0]), 0.0, None)
        separate = 3.0 / math.prod(nodes) * float(np.sum(evs**p))
        assert coarse == pytest.approx(separate, rel=1e-15, abs=0.0)

    def test_coarse_nodes_are_the_even_fine_nodes(self):
        for n in (8, 36, 288, 640):
            coarse = 2.0 * math.pi * np.arange(n) / n
            fine = 2.0 * math.pi * np.arange(2 * n) / (2 * n)
            assert np.array_equal(coarse, fine[::2])

    def test_grid_minimum_enforced(self):
        pot = sp1.random_psd_potential(1, 2, 1.0, [1])[0]
        with pytest.raises(ValueError):
            sp1._power_integral(pot.coeffs[None], 1.5, TWO_PI, (4,))[0]

    def test_power_validation(self):
        pot = sp1.MatrixPotential(constant_coeffs(1.0))
        with pytest.raises(ValueError):
            sp1.trace_power_integral([pot], 0.5, TWO_PI)


_GRID_BANDS = (2, 1, 3)


def _grid_cases(counts):
    """(d, m, nodes) with bands _GRID_BANDS[:d] and counts(2b+1)[i] nodes on
    every axis, for each i."""
    for d in (1, 2, 3):
        per_axis = [counts(2 * b + 1) for b in _GRID_BANDS[:d]]
        for m in (1, 2, 3):
            for nodes in zip(*per_axis):
                yield d, m, nodes


def _with_rejected(w):
    """1, 2 and 2b nodes, below 2b+1 = w and rejected, then w, w+1 and 4w+1."""
    return 1, 2, w - 1, w, w + 1, 4 * w + 1


def _accepted(w):
    """Odd and even counts from w = 2b+1 on, at and past 2w."""
    return w, w + 1, 2 * w, 2 * w + 1, 4 * w, 4 * w + 1


def _grid_coeffs(d, m):
    rng = np.random.default_rng(10 * d + m)
    shape = (3, *[2 * b + 1 for b in _GRID_BANDS[:d]], m, m)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestGridEvaluation:
    @pytest.mark.parametrize("d, m, nodes", list(_grid_cases(_with_rejected)))
    def test_matches_the_direct_sum(self, d, m, nodes):
        coeffs = _grid_coeffs(d, m)
        if any(n < w for n, w in zip(nodes, coeffs.shape[1:-2])):
            with pytest.raises(ValueError, match=r"^a grid needs 2b\+1 nodes per axis"):
                sp1._values_on_grid(coeffs, nodes)
            return
        want = direct_sum_on_grid(coeffs, nodes)
        got = sp1._values_on_grid(coeffs, nodes)
        assert got.shape == want.shape == (3, *nodes, m, m)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if nodes == coeffs.shape[1:-2]:
            # 2b+1 nodes need no padding: the grid is bitwise the inverse
            # FFTs of the centred coefficients, axis by axis
            lattice = tuple(range(1, d + 1))
            plain = np.fft.ifftshift(coeffs, axes=lattice)
            for axis in lattice:
                plain = np.fft.ifft(plain, axis=axis, norm="forward")
            assert np.array_equal(got, plain)

    @pytest.mark.parametrize("d, m, nodes", list(_grid_cases(_accepted)))
    def test_each_entry_is_bitwise_its_stack_of_one(self, d, m, nodes):
        coeffs = _grid_coeffs(d, m)
        stack = sp1._values_on_grid(coeffs, nodes)
        for entry, alone in zip(stack, coeffs):
            one = sp1._values_on_grid(alone[None], nodes)[0]
            assert np.ascontiguousarray(one).tobytes() == np.ascontiguousarray(entry).tobytes()

    @pytest.mark.parametrize("m_dim", [1, 2])
    def test_potential_values_at_every_node_count(self, m_dim):
        pot = sp1.random_psd_potential(m_dim, 2, 1.0, [3])[0]
        width = 2 * pot.bands[0] + 1
        for n in range(width, 4 * width + 2):
            want = direct_sum_on_grid(pot.coeffs[None], (n,))
            assert np.max(np.abs(sp1._values_on_grid(pot.coeffs[None], (n,)) - want)) <= 1e-13 * np.max(np.abs(want))
        with pytest.raises(ValueError, match=r"^a grid needs 2b\+1 nodes per axis, got \(8,\) for widths \(9,\)$"):
            sp1._values_on_grid(pot.coeffs[None], (width - 1,))

    def test_grid_over_the_budget_is_rejected(self, monkeypatch):
        # a grid holds nodes * m^2 entries, at most ROW_BUDGET^2
        monkeypatch.setattr(sp1, "ROW_BUDGET", 40)
        for m_dim, nodes in ((1, 1600), (2, 400)):
            coeffs = sp1._psd_coeffs(1, m_dim, 1, 1.0, [0])
            assert sp1._values_on_grid(coeffs, (nodes,)).shape == (1, nodes, m_dim, m_dim)
            with pytest.raises(ValueError, match=f"^a grid of {nodes + 1} nodes exceeds the dense budget$"):
                sp1._values_on_grid(coeffs, (nodes + 1,))
        with pytest.raises(ValueError, match="^a grid of 1681 nodes exceeds the dense budget$"):
            sp1._values_on_grid(sp1._psd_coeffs(2, 1, 1, 1.0, [0]), (41, 41))


class TestAssembly:
    def test_h1_constant_scalar_diagonal(self):
        pot = sp1.MatrixPotential(constant_coeffs(1.7))
        a = sp1.assemble_h1(pot, 1.0, 1.0, 6)
        eigs = np.linalg.eigvalsh(a)
        assert np.allclose(eigs, h1_constant_potential_eigs(1.7, 1.0, 1.0, 6), atol=1e-13)

    def test_h1_zero_potential_positive(self):
        pot = sp1.MatrixPotential(constant_coeffs(0.0, m_dim=2))
        a = sp1.assemble_h1(pot, 0.5, 0.3, 4)
        assert float(np.min(np.linalg.eigvalsh(a))) >= 0.5**2 * 0.3 - 1e-14

    def test_h1_exact_hermiticity(self):
        pot = sp1.random_psd_potential(2, 3, 1.0, [9])[0]
        a = sp1.assemble_h1(pot, 1.0, 0.5, pot.bands[0] + 8)
        assert float(np.max(np.abs(a - a.conj().T))) == 0.0

    def test_h1_size_and_truncation_check(self):
        pot = sp1.random_psd_potential(2, 1, 1.0, [0])[0]
        a = sp1.assemble_h1(pot, 1.0, 1.0, 5)
        assert a.shape == (2 * 11, 2 * 11)
        with pytest.raises(ValueError):
            sp1.assemble_h1(pot, 1.0, 1.0, 1)  # truncation below band

    @pytest.mark.parametrize("m_dim", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_h1_matches_loop_oracle(self, m_dim, alpha):
        pot = sp1.random_psd_potential(m_dim, 1, 1.0, [11])[0]
        ks = np.arange(-6, 7)
        kinetic = alpha * alpha * (ks.astype(float) ** 2 + 0.3)
        want = galerkin_loop(ks[:, None], kinetic, pot.coeffs, np.ones(len(ks), bool))
        a = sp1.assemble_h1(pot, alpha, 0.3, 6)
        assert a.dtype == complex  # unprojected: the k = 0 mode has no partner
        assert np.array_equal(a, want)

    def test_h2_matches_loop_oracle(self):
        pot = sp1.random_psd_potential(2, 1, 1.0, [12])[0]
        ks = np.concatenate([np.arange(-6, 0), np.arange(1, 7)])
        kinetic = ks.astype(float) ** 2 - 0.4
        want = galerkin_loop(ks[:, None], kinetic, pot.coeffs, np.ones(len(ks), bool))
        a = sp1.assemble_h2(pot, 0.4, 6)
        assert a.dtype == complex  # a matrix potential keeps the exponentials
        assert np.array_equal(a, want)

    def test_h2_constant_scalar_diagonal(self):
        pot = sp1.MatrixPotential(constant_coeffs(2.3))
        a = sp1.assemble_h2(pot, 0.0, 5)
        eigs = np.linalg.eigvalsh(a)
        assert np.allclose(eigs, h2_constant_potential_eigs(2.3, 0.0, 5), atol=1e-13)

    def test_h2_zero_potential_gap(self):
        pot = sp1.MatrixPotential(constant_coeffs(0.0, m_dim=3))
        a = sp1.assemble_h2(pot, 0.8, 4)
        assert float(np.min(np.linalg.eigvalsh(a))) >= 1.0 - 0.8 - 1e-14

    def test_assemblers_reject_a_2d_potential(self):
        pot = sp1.MatrixPotential(np.eye(2, dtype=complex)[None, None])
        assert pot.d == 2
        with pytest.raises(ValueError, match="1D potential"):
            sp1.assemble_h1(pot, 1.0, 0.5, 4)
        with pytest.raises(ValueError, match="1D potential"):
            sp1.assemble_h2(pot, 0.5, 4)

    def test_h2_mode_count_excludes_zero(self):
        pot = sp1.MatrixPotential(constant_coeffs(1.0, m_dim=2))
        a = sp1.assemble_h2(pot, 0.1, 7)
        assert a.shape == (2 * 2 * 7, 2 * 2 * 7)


class TestRealForm:
    # scalar projected operators: (potential d, band, seed, alphas, mass, truncation)
    CASES = {
        "torus_alpha_1": (2, 1, 3, (1.0, 1.0), 0.0, (5, 5)),
        "torus_alpha_half": (2, 1, 4, (0.5, 1.0), 0.0, (6, 4)),
        "torus_3d": (3, 1, 5, (0.5, 0.75, 1.0), 0.0, (2, 3, 2)),
        "torus_alpha_half_9_5": (2, 1, 7, (0.5, 1.0), 0.0, (9, 5)),
        "torus_3d_unequal": (3, 1, 8, (0.5, 0.75, 1.0), 0.0, (4, 2, 3)),
        "h2": (1, 2, 6, (1.0,), -0.4, (9,)),
    }

    def _case(self, case):
        """The potential and the complex pair-loop Galerkin matrix of a case."""
        d, band, seed, alphas, mass, n_modes = self.CASES[case]
        pot = sp1.MatrixPotential(sp1._psd_coeffs(d, 1, band, 1.0, [seed])[0])
        mesh = np.meshgrid(*[np.arange(-n, n + 1) for n in n_modes], indexing="ij")
        modes = np.stack([g.ravel() for g in mesh], axis=-1)
        modes = modes[modes[:, -1] != 0]
        kinetic = np.sum((np.asarray(alphas) * modes) ** 2, axis=1) + mass
        return pot, galerkin_loop(modes, kinetic, pot.coeffs, np.ones(len(modes), bool))

    @pytest.mark.parametrize("case", list(CASES))
    def test_spectrum_matches_complex_oracle(self, case):
        _, _, _, alphas, mass, n_modes = self.CASES[case]
        pot, want = self._case(case)
        r, upper = sp1._lattice_operator(pot, alphas, mass, n_modes, projected=True)
        assert upper is None and r.dtype == np.float64
        assert np.array_equal(r, r.T)
        drift = np.max(np.abs(np.linalg.eigvalsh(r) - np.linalg.eigvalsh(want)))
        assert drift <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_folded_loop_oracle_bitwise(self, case, padded):
        # the box alone, or the lower block of the box padded for the upper matrix
        _, _, _, alphas, mass, n_modes = self.CASES[case]
        pot, loop = self._case(case)
        s = sp1._sup_bound(pot.coeffs[None])[0] if padded else None
        r, _ = sp1._lattice_operator(pot, alphas, mass, n_modes, True, s)
        want = real_form(loop)
        assert r.dtype == want.dtype == np.float64
        assert np.array_equal(r, want)
        assert np.array_equal(np.signbit(r), np.signbit(want))

    def test_refills_a_matrix_of_its_shape(self):
        _, _, _, alphas, mass, n_modes = self.CASES["torus_alpha_half"]
        pot, loop = self._case("torus_alpha_half")
        out = np.full(loop.shape, np.nan)
        r, _ = sp1._lattice_operator(pot, alphas, mass, n_modes, True, out=out)
        assert r is out and np.array_equal(r, real_form(loop))
        for wrong in (np.full((4, 4), np.nan), np.full(loop.shape, np.nan, complex)):  # shape or dtype
            r, _ = sp1._lattice_operator(pot, alphas, mass, n_modes, True, out=wrong)
            assert r is not wrong and np.isnan(wrong).all() and np.array_equal(r, real_form(loop))


class TestLatticePlan:
    # (d, band, truncation): bands 2 and 4 give the real form's diagonal Q terms V(2k)
    CASES = {
        "d1_band0": (1, 0, (2,)),
        "d1_band4": (1, 4, (5,)),
        "d2_band0": (2, 0, (1, 1)),
        "d2_band2": (2, 2, (2, 3)),
        "d3_band0": (3, 0, (1, 1, 1)),
        "d3_band1": (3, 1, (1, 1, 1)),
    }
    ALPHAS = {1: (0.5,), 2: (0.5, 1.0), 3: (0.5, 0.75, 1.0)}

    @staticmethod
    def _potential(d, m_dim, band, seed):
        """Random coefficients, exactly paired (V need not be PSD here)."""
        rng = np.random.default_rng(seed)
        shape = (2 * band + 1,) * d + (m_dim, m_dim)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return sp1.MatrixPotential(0.5 * (c + np.flip(c, tuple(range(d))).conj().swapaxes(-1, -2)))

    @staticmethod
    def _oracle(pot, alphas, mass, n_modes, projected, s):
        """The loop matrix of the box padded by max(b_j, 1), folded when real,
        then its box block and the Schur complement on the ring."""
        padded = [n + max(b, 1) for n, b in zip(n_modes, pot.bands)]
        mesh = np.meshgrid(*[np.arange(-n, n + 1) for n in padded], indexing="ij")
        modes = np.stack([g.ravel() for g in mesh], axis=-1)
        if projected:
            modes = modes[modes[:, -1] != 0]
        kinetic = np.sum((np.asarray(alphas) * modes) ** 2, axis=1) + mass
        h = galerkin_loop(modes, kinetic, pot.coeffs, np.ones(len(modes), bool))
        index = np.arange(len(modes))
        if projected and pot.m_dim == 1:
            h, row_mode = real_form(h), np.tile(index[: len(index) // 2], 2)
        else:
            row_mode = np.repeat(index, pot.m_dim)
        inside = np.all(np.abs(modes[row_mode]) <= n_modes, axis=1)
        a, b = h[np.ix_(inside, inside)], h[np.ix_(inside, ~inside)]
        return a, a - (b / (kinetic[row_mode[~inside]] - s)) @ b.conj().T

    @pytest.mark.parametrize("projected", [False, True])
    @pytest.mark.parametrize("m_dim", [1, 2])
    @pytest.mark.parametrize("case", list(CASES))
    def test_lower_and_upper_match_the_loop_oracles_bitwise(self, case, m_dim, projected):
        d, band, n_modes = self.CASES[case]
        pot, alphas = self._potential(d, m_dim, band, 3 * d + band), self.ALPHAS[d]
        s = 0.1  # below every ring weight, so both sides have an upper matrix
        want_lower, want_upper = self._oracle(pot, alphas, 0.3, n_modes, projected, s)
        assert want_lower.dtype == (np.float64 if projected and m_dim == 1 else complex)
        alone, none = sp1._lattice_operator(pot, alphas, 0.3, n_modes, projected)
        lower, upper = sp1._lattice_operator(pot, alphas, 0.3, n_modes, projected, s)
        assert none is None
        for got, want in ((alone, want_lower), (lower, want_lower), (upper, want_upper)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()  # zero signs too

    def test_potentials_of_one_shape_keep_their_own_values(self):
        form = sp1._form("add", 0.5)
        pots = sp1.random_psd_potential(2, 2, 1.0, [0, 1])
        s = max(sp1._sup_bound(pot.coeffs[None])[0] for pot in pots)
        first = [form.enclosure(pot, 10, s) for pot in pots]
        sp1._lattice_plan.cache_clear()
        again = [form.enclosure(pot, 10, s) for pot in reversed(pots)][::-1]
        assert sp1._lattice_plan.cache_info().currsize == 1
        for (lower, upper), (lower_again, upper_again) in zip(first, again):
            assert np.array_equal(lower, lower_again) and np.array_equal(upper, upper_again)
        assert not np.array_equal(first[0][0], first[1][0])

    @pytest.mark.parametrize("d, band", [(2, 2), (3, 1)])
    def test_a_stacked_torus_draw_is_its_single_draws_bitwise(self, d, band):
        seeds = list(range(20))
        stacked = torus.ScalarPotentialD.random(d, band, 1.0, seeds)
        for seed, pot in zip(seeds, stacked):
            alone, = torus.ScalarPotentialD.random(d, band, 1.0, [seed])
            assert pot.coeffs.tobytes() == alone.coeffs.tobytes(), seed

    def test_plan_arrays_are_read_only(self):
        box, ring, a, b = sp1._lattice_plan((9,), 1, (12,), True, True)
        for terms in (a, b):
            assert terms.dtype == np.int32 and terms.shape[0] == 2 and terms.shape[1] > 0
        for x in (box, ring, a, b):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[...] = 0

    def test_geometries_of_one_shape_share_one_plan(self):
        pot = torus.ScalarPotentialD.random(2, 2, 1.0, [0])[0]
        sp1._lattice_plan.cache_clear()
        built = [torus.assemble_torus_operator(pot, torus.TorusGeometry((alpha, 1.0)), (16, 16))
                 for alpha in (1.0, 0.5)]
        info = sp1._lattice_plan.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        assert not np.array_equal(*built)

    def test_memo_is_bounded(self):
        size = sp1._PLAN_MEMO_SIZE
        assert sp1._lattice_plan.cache_info().maxsize == size
        pot = sp1.MatrixPotential(constant_coeffs(1.0))
        for n in range(1, 1 + 2 * size):
            sp1._lattice_operator(pot, (1.0,), 0.5, (n,), False)
        assert sp1._lattice_plan.cache_info().currsize == size


class TestGammaCheckedFirst:
    @pytest.fixture(autouse=True)
    def no_eigensolve(self, monkeypatch):
        def refuse(matrix):
            raise AssertionError("eigensolve ran before gamma was checked")

        monkeypatch.setattr(sp1, "negative_spectrum", refuse)
        monkeypatch.setattr(torus, "negative_spectrum", refuse)

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.999])
    def test_verifiers_reject_gamma_below_one(self, gamma):
        pot = sp1.random_psd_potential(2, 1, 1.0, [0])[0]
        calls = [
            lambda: sp1.verify_bound_h1([pot], 1.0, 0.5, gamma)[0],
            lambda: sp1.verify_bound_h2([pot], 0.5, gamma)[0],
            lambda: torus.verify_bound_torus(
                torus.ScalarPotentialD.random(2, 1, 1.0, [0]), torus.TorusGeometry((1.0, 1.0)), gamma
            ),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="gamma must be >= 1"):
                call()


class TestPairingAndBudget:
    def test_unpaired_coefficients_rejected_on_construction(self):
        # V_1 = 0.9 without its adjoint V_-1 would assemble a non-Hermitian
        # matrix, of which eigvalsh reads only one triangle.
        coeffs = np.array([0.0, 1.0, 0.9], dtype=complex).reshape(3, 1, 1)
        with pytest.raises(ValueError, match="adjoint"):
            sp1.MatrixPotential(coeffs)

    def test_non_hermitian_head_rejected(self):
        coeffs = np.array([[[1.0, 0.5j], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="adjoint"):
            sp1.MatrixPotential(coeffs)

    def test_row_budget_counts_matrix_blocks(self, monkeypatch):
        pot = sp1.MatrixPotential(constant_coeffs(1.0, m_dim=2))
        monkeypatch.setattr(sp1, "ROW_BUDGET", 2 * 2 * 7)
        assert sp1.assemble_h2(pot, 0.1, 7).shape == (28, 28)
        with pytest.raises(ValueError, match="budget"):
            sp1.assemble_h2(pot, 0.1, 8)
        with pytest.raises(ValueError, match="budget"):
            sp1.assemble_h1(pot, 1.0, 0.5, 7)


    def test_enclosure_box_counts_against_the_budget(self, monkeypatch):
        # V's band 2: the 22-row box |k| <= 5 is enclosed on the 30-row box |k| <= 7
        pot = sp1.random_psd_potential(2, 1, 1.0, [0])[0]
        monkeypatch.setattr(sp1, "ROW_BUDGET", 29)
        assert sp1.assemble_h1(pot, 1.0, 0.5, 5).shape == (22, 22)
        with pytest.raises(ValueError, match="Galerkin size 30 exceeds"):
            sp1._form("add", 0.5).enclosure(pot, 5, sp1._sup_bound(pot.coeffs[None])[0])

    def test_band_zero_enclosure_pads_one_ring(self, monkeypatch):
        # the 11-row box |k| <= 5 of a band-0 potential is enclosed on |k| <= 6
        pot = sp1.MatrixPotential(constant_coeffs(1.0))
        monkeypatch.setattr(sp1, "ROW_BUDGET", 12)
        assert sp1.assemble_h1(pot, 1.0, 0.5, 5).shape == (11, 11)
        with pytest.raises(ValueError, match="Galerkin size 13 exceeds"):
            sp1._form("add", 0.5).enclosure(pot, 5, sp1._sup_bound(pot.coeffs[None])[0])

    def test_uncoverable_band_rejected_before_the_autocorrelation(self, monkeypatch):
        def refuse(w):
            raise AssertionError("autocorrelation ran")

        monkeypatch.setattr(sp1, "_autocorrelation", refuse)
        # V's band 2b needs at least 2 * 2b projected rows per component in 1D
        monkeypatch.setattr(sp1, "ROW_BUDGET", 2 * 2 * 3 * 2 - 1)
        with pytest.raises(ValueError, match="Galerkin size 24 exceeds"):
            sp1.random_psd_potential(2, 3, 1.0, [0])


class TestForms:
    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (0.25, 0.3), (0.3, 0.7)])
    def test_add_weights_are_the_h1_diagonal(self, alpha, beta):
        pot = sp1.MatrixPotential(constant_coeffs(0.0))
        for band in range(6):
            want = np.diag(sp1.assemble_h1(pot, alpha, beta, band)).real
            assert np.array_equal(sp1._form("add", beta, alpha).weights(band), want)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.7])
    def test_subtract_weights(self, beta):
        for band in range(6):
            ks = np.arange(-band, band + 1, dtype=float)
            assert np.array_equal(sp1._form("subtract", beta).weights(band), ks**2 - beta)

    @pytest.mark.parametrize(
        "which, beta, alpha, message",
        [("add", 0.0, 1.0, "beta > 0"), ("add", 0.5, 0.0, "alpha > 0"),
         ("subtract", 1.0, 1.0, r"beta in \[0, 1\)"), ("subtract", 0.5, 0.5, "alpha = 1"),
         ("both", 0.5, 1.0, "'add' or 'subtract'")],
    )
    def test_parameter_checks(self, which, beta, alpha, message):
        with pytest.raises(ValueError, match=message):
            sp1._form(which, beta, alpha)


class TestNegativeSpectrum:
    def test_simple_diagonal(self):
        rep = sp1.negative_spectrum(np.diag([-1.0, 0.0, 2.0]))
        assert rep.negatives.tolist() == [1.0]

    def test_magnitudes_are_a_read_only_float64_array(self):
        rep = sp1.negative_spectrum(np.diag([-3.0, -1.0, 2.0]))
        assert rep.negatives.dtype == np.float64 and rep.negatives.tolist() == [3.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            rep.negatives[0] = 0.0

    def test_zero_potential_empty(self):
        pot = sp1.MatrixPotential(constant_coeffs(0.0))
        rep = sp1.negative_spectrum(sp1.assemble_h1(pot, 1.0, 1.0, 4))
        assert rep.negatives.tolist() == []

    def test_constant_two_modes(self):
        pot = sp1.MatrixPotential(constant_coeffs(2.0))
        rep = sp1.negative_spectrum(sp1.assemble_h2(pot, 0.0, 4))
        assert rep.negatives.tolist() == [1.0, 1.0]

    def test_sorted_descending_positive(self):
        pot = sp1.random_psd_potential(2, 2, 2.0, [17])[0]
        rep = sp1.negative_spectrum(sp1.assemble_h2(pot, 0.5, 20))
        vals = rep.negatives
        assert all(v > 0 for v in vals)
        assert list(vals) == sorted(vals, reverse=True)

    def test_non_finite_rejected(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            sp1.negative_spectrum(bad)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, complex(0.0, np.nan)])
    def test_every_non_finite_entry_rejected(self, entry):
        bad = np.array([[1.0, 0.0], [entry, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            sp1.negative_spectrum(bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (3, 1), (4, 4)])
    def test_non_finite_entry_of_a_real_matrix_rejected(self, entry, where):
        bad = np.random.default_rng(0).standard_normal((5, 5))
        bad[where] = entry
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            sp1.negative_spectrum(bad)

    @pytest.mark.parametrize("seed", range(6))
    def test_real_cut_is_the_max_abs_one_bitwise(self, seed, monkeypatch):
        # eigvalsh is replaced by values one ulp either side of -1e-12 max|A|:
        # only the one below the cut is reported, so the cut is that value
        # bitwise; for the float matrix, that matrix scaled to max|A| < 1,
        # and a complex one
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4)
        matrix = rng.standard_normal((6, 6)) * scale
        matrix[rng.integers(6), rng.integers(6)] = -3.0 * np.max(np.abs(matrix)) * (seed % 2)
        below_one = matrix * (0.75 / np.max(np.abs(matrix)))
        complex_matrix = matrix + 1j * rng.standard_normal((6, 6)) * scale
        for a in (matrix, below_one, complex_matrix):
            cut = sp1._EIG_CUT_REL * float(np.max(np.abs(a)))
            below, at = -np.nextafter(cut, np.inf), -cut
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([below, at, 0.0]))
            assert sp1.negative_spectrum(a).negatives.tolist() == [-below]

    def test_zero_real_matrices_have_no_negatives(self):
        for zero in (np.zeros((3, 3)), np.full((3, 3), -0.0)):
            assert sp1.negative_spectrum(zero).negatives.tolist() == []

    def test_empty_matrix(self):
        assert sp1.negative_spectrum(np.zeros((0, 0))).negatives.tolist() == []


class TestRieszMean:
    def test_trivia(self):
        rep = sp1.EigenReport(negatives=(1.0, 1.0))
        assert sp1.riesz_mean(rep, 1.0) == 2.0
        rep = sp1.EigenReport(negatives=(4.0,))
        assert sp1.riesz_mean(rep, 1.5) == pytest.approx(8.0, rel=1e-15)
        empty = sp1.EigenReport(negatives=())
        assert sp1.riesz_mean(empty, 2.0) == 0.0

    def test_gamma_validation(self):
        rep = sp1.EigenReport(negatives=(1.0,))
        with pytest.raises(ValueError):
            sp1.riesz_mean(rep, 0.5)


def _assert_zero_certified(report):
    # a zero-width potential has no negative eigenvalue and no rhs
    assert report.lhs == report.rhs == report.metadata["lhs_upper"] == 0.0
    assert report.metadata["certified"] is True


class TestVerifyH1:
    def test_constant_enumeration(self):
        pot = sp1.MatrixPotential(constant_coeffs(2.0))
        report = sp1.verify_bound_h1([pot], 1.0, 1.0, 1.0, n_max=8)[0]
        # only the k = 0 mode dips below zero: eigenvalue 1 - 2 = -1
        assert report.lhs == 1.0
        expected_rhs = (math.pi / math.sqrt(3.0)) * (2.0 / (3.0 * math.pi)) * TWO_PI * 2.0**1.5
        assert report.rhs == pytest.approx(expected_rhs, rel=1e-12)
        assert report.passed

    def test_zero_potential(self):
        pot = sp1.MatrixPotential(constant_coeffs(0.0))
        report = sp1.verify_bound_h1([pot], 1.0, 0.5, 1.0, n_max=4)[0]
        assert report.lhs == 0.0 and report.rhs == 0.0
        assert report.ratio == 0.0 and report.passed

    def test_zero_width_potential(self):
        empty = sp1.MatrixPotential(np.zeros((3, 0, 0), complex))
        _assert_zero_certified(sp1.verify_bound_h1([empty], 1.0, 0.5, 1.0)[0])

    def test_random_suite(self):
        for seed in range(20):
            pot = sp1.random_psd_potential(2, 2, 1.0, [seed])[0]
            report = sp1.verify_bound_h1([pot], 1.0, 0.5, 1.0, seeds=[seed])[0]
            assert report.passed, report.to_dict()
            assert report.ratio <= 1.0


class TestVerifyH2:
    def test_constant_enumeration(self):
        pot = sp1.MatrixPotential(constant_coeffs(2.0))
        report = sp1.verify_bound_h2([pot], 0.0, 1.0, n_max=8)[0]
        assert report.lhs == 2.0
        expected_rhs = (math.pi / math.sqrt(3.0)) * (2.0 / (3.0 * math.pi)) * TWO_PI * 2.0**1.5
        assert report.rhs == pytest.approx(expected_rhs, rel=1e-12)
        assert report.passed

    def test_trivial_high_delta(self):
        pot = sp1.MatrixPotential(constant_coeffs(0.0))
        report = sp1.verify_bound_h2([pot], 0.839, 1.0, n_max=4)[0]
        assert report.lhs == 0.0 and report.passed

    def test_zero_width_potential(self):
        empty = sp1.MatrixPotential(np.zeros((3, 0, 0), complex))
        _assert_zero_certified(sp1.verify_bound_h2([empty], 0.5, 1.0)[0])

    def test_random_suite(self):
        for i, seed in enumerate(range(20)):
            gamma = (1.0, 1.5, 2.0)[i % 3]
            pot = sp1.random_psd_potential(3, 2, 1.0, [seed])[0]
            report = sp1.verify_bound_h2([pot], 0.5, gamma, seeds=[seed])[0]
            assert report.passed, report.to_dict()


class TestEnclosure:
    FORMS = {"h1": ("add", 0.5, 1.0), "h1_long": ("add", 0.3, 0.5), "h2": ("subtract", 0.5, 1.0)}

    @pytest.mark.parametrize("m_dim", [1, 2])
    @pytest.mark.parametrize("value", [0.0, 0.7, 2.0, 9.5])
    def test_constant_potential_upper_equals_lower_exactly(self, m_dim, value):
        pot = sp1.MatrixPotential(constant_coeffs(value, m_dim=m_dim))
        for report in (sp1.verify_bound_h1([pot], 1.0, 0.5, 1.0)[0], sp1.verify_bound_h2([pot], 0.5, 1.5)[0],
                       sp1.verify_bound_h1([pot], 0.5, 0.2, 2.0, n_max=6)[0]):
            assert report.metadata["lhs_upper"] == report.lhs
            assert report.metadata["certified"] is True

    @pytest.mark.parametrize("name", list(FORMS))
    @pytest.mark.parametrize("m_dim", [1, 2, 3])
    def test_box_block_is_the_galerkin_matrix_bitwise(self, name, m_dim):
        # the lower matrix of the padded scatter is the one of the box alone
        which, beta, alpha = self.FORMS[name]
        form = sp1._form(which, beta, alpha)
        pot = sp1.random_psd_potential(m_dim, 2, 1.0, [40 + m_dim])[0]
        for n in (pot.bands[0], pot.bands[0] + 5):
            lower, upper = form.enclosure(pot, n, sp1._sup_bound(pot.coeffs[None])[0])
            want, none = form.enclosure(pot, n)
            assert none is None
            assert lower.dtype == want.dtype and np.array_equal(lower, want)
            assert upper is None or (upper.dtype, upper.shape) == (want.dtype, want.shape)

    TORUS = {"alpha_1": ((1.0, 1.0), (6, 6)), "alpha_half": ((0.5, 1.0), (10, 4))}

    @pytest.mark.parametrize("case", list(TORUS))
    def test_torus_box_block_is_the_galerkin_matrix_bitwise(self, case):
        alphas, n_modes = self.TORUS[case]
        pot = torus.ScalarPotentialD.random(2, 1, 0.5, [7])[0]
        lower, upper = sp1._lattice_operator(pot, alphas, 0.0, n_modes, True, sp1._sup_bound(pot.coeffs[None])[0])
        want = torus.assemble_torus_operator(pot, torus.TorusGeometry(alphas), n_modes)
        assert upper is not None and lower.dtype == want.dtype == np.float64
        assert np.array_equal(lower, want)

    @pytest.mark.parametrize("case", list(TORUS))
    def test_torus_lower_of_a_larger_box_stays_below_the_upper_bound(self, case):
        # the 2-torus mirror of the 1D test below, in the real form
        alphas, n_modes = self.TORUS[case]
        pot = torus.ScalarPotentialD.random(2, 1, 0.5, [7])[0]
        _, upper = sp1._lattice_operator(pot, alphas, 0.0, n_modes, True, sp1._sup_bound(pot.coeffs[None])[0])
        larger = torus.assemble_torus_operator(pot, torus.TorusGeometry(alphas), [n + 6 for n in n_modes])
        ev_upper = np.minimum(np.linalg.eigvalsh(upper), 0.0)
        ev_larger = np.minimum(np.linalg.eigvalsh(larger), 0.0)[: len(ev_upper)]
        assert np.min(ev_upper) < 0
        assert np.all(ev_upper <= ev_larger + 1e-12 * np.max(np.abs(larger)))

    # (W band, W scale, seed, alphas, truncation): the first truncation with an upper matrix
    TORUS_UPPER = {
        "band_1_alpha_1": (1, 0.5, 0, (1.0, 1.0), (2, 2)),
        "band_1_alpha_half": (1, 0.5, 2, (0.5, 1.0), (5, 2)),
        "band_2_alpha_1": (2, 0.3, 0, (1.0, 1.0), (4, 4)),
        "band_2_alpha_half": (2, 0.3, 1, (0.5, 1.0), (7, 4)),
    }

    @pytest.mark.parametrize("case", list(TORUS_UPPER))
    def test_torus_upper_matches_the_loop_schur_complement(self, case):
        # A - B (diag K_ring - s)^-1 B^H on the box padded by max(b_j, 1),
        # from the pair-loop Galerkin matrix, folded into the real form
        band, scale, seed, alphas, n_modes = self.TORUS_UPPER[case]
        pot = torus.ScalarPotentialD.random(2, band, scale, [seed])[0]
        s = sp1._sup_bound(pot.coeffs[None])[0]
        padded = [n + max(b, 1) for n, b in zip(n_modes, pot.bands)]
        mesh = np.meshgrid(*[np.arange(-n, n + 1) for n in padded], indexing="ij")
        modes = np.stack([g.ravel() for g in mesh], axis=-1)
        modes = modes[modes[:, -1] != 0]
        kinetic = np.sum((np.asarray(alphas) * modes) ** 2, axis=1)
        h = galerkin_loop(modes, kinetic, pot.coeffs, np.ones(len(modes), bool))
        inside = np.all(np.abs(modes) <= n_modes, axis=1)
        a, b = h[np.ix_(inside, inside)], h[np.ix_(inside, ~inside)]
        want = real_form(a - b @ np.diag(1.0 / (kinetic[~inside] - s)) @ b.conj().T)
        _, upper = sp1._lattice_operator(pot, alphas, 0.0, n_modes, True, s)
        assert upper is not None and np.min(np.linalg.eigvalsh(upper)) < 0
        assert np.max(np.abs(upper - want)) <= 1e-12 * np.max(np.abs(want))

    def test_torus_upper_exists_exactly_when_the_long_axis_ring_outweighs_s(self):
        # alpha = (1/2, 1) with n_2 = 6: the lightest mode outside the box is
        # k = (n_1 + 1, +-1), of weight (n_1 + 1)^2 / 4 + 1, for every n_1 < 12
        pot = torus.ScalarPotentialD.random(2, 1, 0.5, [7])[0]
        s = sp1._sup_bound(pot.coeffs[None])[0]
        found = set()
        for n in range(2, 12, 2):
            _, upper = sp1._lattice_operator(pot, (0.5, 1.0), 0.0, (n, 6), True, s)
            found.add(upper is None)
            assert (upper is None) == ((0.5 * (n + 1)) ** 2 + 1.0 <= s), (n, s)
        assert found == {True, False}

    @staticmethod
    def _items(m_dim):
        """Random potentials, and random ones with phase-aligned coefficients:
        those peak at x = 0, where a scalar one reaches s = sum_k |V_k|."""
        for seed in range(6):
            args = (m_dim, 1 + seed % 2, 0.5 + 0.5 * (seed % 3), [seed])
            yield sp1.random_psd_potential(*args)[0], (1.0, 1.5, 2.0)[seed % 3]
            w = np.abs(np.random.default_rng(seed).standard_normal((2 * args[1] + 1, m_dim, m_dim)))
            pot = sp1.MatrixPotential(sp1._autocorrelation(args[2] * w.astype(complex)[None])[0])
            sp1._validate(pot.coeffs[None])
            yield pot, (1.0, 1.5, 2.0)[seed % 3]

    @pytest.mark.parametrize("name", list(FORMS))
    @pytest.mark.parametrize("m_dim", [1, 2, 3])
    def test_lower_of_a_larger_box_stays_below_the_upper_bound(self, name, m_dim):
        # The continuum operator lies between them: min-max puts its j-th
        # eigenvalue below that of any larger box and above that of the upper
        # matrix padded by zeros.  So each eigenvalue, and each Riesz mean, of
        # the box n + 8 sits between those of the upper matrix at n and 0.
        # m_dim 1 with h2 is the real form.
        which, beta, alpha = self.FORMS[name]
        form = sp1._form(which, beta, alpha)
        checked = 0
        for pot, gamma in self._items(m_dim):
            s = sp1._sup_bound(pot.coeffs[None])[0]
            rungs = form.truncations(pot, s)
            n0 = rungs[0] - 12 if len(rungs) > 1 else pot.bands[0]
            for n in range(n0, n0 + 9, 2):
                _, upper = form.enclosure(pot, n, s)
                if upper is None:
                    continue
                larger, _ = form.enclosure(pot, n + 8)
                ev_upper = np.minimum(np.linalg.eigvalsh(upper), 0.0)
                ev_larger = np.minimum(np.linalg.eigvalsh(larger), 0.0)[: len(ev_upper)]
                assert np.all(ev_upper <= ev_larger + 1e-12 * np.max(np.abs(larger))), (n, pot.bands)
                means = [sp1.riesz_mean(sp1.negative_spectrum(x), gamma) for x in (upper, larger)]
                assert means[1] <= means[0] * (1 + 1e-12), (n, means)
                checked += 1
        assert checked >= 24

    def test_no_upper_bound_below_the_analytic_truncation(self):
        pot = sp1.random_psd_potential(2, 2, 1.0, [0])[0]
        s = sp1._sup_bound(pot.coeffs[None])[0]
        form = sp1._form("add", 0.5, 1.0)
        n0 = form.truncations(pot, s)[0] - 12
        assert (n0 + 1) ** 2 + 0.5 > s >= n0**2 + 0.5
        assert form.enclosure(pot, n0 - 1, s)[1] is None
        assert form.enclosure(pot, n0, s)[1] is not None
        report = sp1.verify_bound_h1([pot], 1.0, 0.5, 1.0, n_max=n0 - 1)[0]
        assert report.metadata["lhs_upper"] is None and report.metadata["certified"] is False

    def test_default_truncation_is_the_first_enclosing_rung(self):
        for seed in range(8):
            pot = sp1.random_psd_potential(2, 2, 1.0, [seed])[0]
            form = sp1._form("subtract", 0.5)
            rungs = form.truncations(pot, sp1._sup_bound(pot.coeffs[None])[0])
            assert rungs[-1] == pot.bands[0] + 32 and np.all(np.diff(rungs[:-1]) == 4)
            report = sp1.verify_bound_h2([pot], 0.5, 1.0)[0]
            n = report.metadata["truncation"]
            for tried in rungs[: rungs.index(n)]:
                matrices = form.enclosure(pot, tried, sp1._sup_bound(pot.coeffs[None])[0])
                lower, upper = (sp1.riesz_mean(sp1.negative_spectrum(x), 1.0) for x in matrices)
                assert upper - lower > 1e-12 * upper
            explicit = sp1.verify_bound_h2([pot], 0.5, 1.0, n_max=n)[0]
            assert explicit.to_dict() == report.to_dict()
            assert report.metadata["lhs_upper"] - report.lhs <= 1e-12 * report.metadata["lhs_upper"]
            assert report.metadata["certified"] is True

    @pytest.mark.parametrize("operator", ["h1", "h2"])
    def test_strong_coupling_keeps_the_top_rung_lhs_bitwise(self, operator):
        pot = sp1.random_psd_potential(2, 2, 10.0, [3])[0]
        n = pot.bands[0] + 32
        if operator == "h1":
            report = sp1.verify_bound_h1([pot], 1.0, 0.5, 1.0)[0]
            matrix = sp1.assemble_h1(pot, 1.0, 0.5, n)
        else:
            report = sp1.verify_bound_h2([pot], 0.5, 1.0)[0]
            matrix = sp1.assemble_h2(pot, 0.5, n)
        assert report.metadata["truncation"] == n
        assert report.lhs == sp1.riesz_mean(sp1.negative_spectrum(matrix), 1.0)
        upper = report.metadata["lhs_upper"]
        want = upper is not None and upper <= report.rhs
        assert report.metadata["certified"] is want

    def test_certified_has_no_slack(self):
        # rhs scaled to 5e-13 below lhs_upper: inside pass's PASS_SLACK, but
        # the continuum bound is not shown
        report = sp1.verify_bound_h2(sp1.random_psd_potential(2, 2, 1.0, [0]), 0.5, 1.0)[0]
        upper = report.metadata["lhs_upper"]
        assert report.metadata["certified"] is True
        scaled = report.with_rhs_scaled(upper * (1.0 - 5e-13) / report.rhs)
        assert scaled.rhs < upper <= scaled.rhs * (1.0 + PASS_SLACK)
        assert scaled.passed and scaled.metadata["certified"] is False

    def test_explicit_truncation_is_one_rung(self, monkeypatch):
        pot = sp1.random_psd_potential(2, 2, 1.0, [5])[0]
        calls = []
        operator = sp1._lattice_operator

        def spy(potential, alphas, mass, n_modes, *args):
            calls.append(list(n_modes))
            return operator(potential, alphas, mass, n_modes, *args)

        monkeypatch.setattr(sp1, "_lattice_operator", spy)
        report = sp1.verify_bound_h1([pot], 1.0, 0.5, 1.0, n_max=9)[0]
        assert calls == [[9]] and report.metadata["truncation"] == 9
        assert report.lhs == sp1.riesz_mean(
            sp1.negative_spectrum(sp1.assemble_h1(pot, 1.0, 0.5, 9)), 1.0)


class TestSemiclassicalLimit:
    """For V = lam * W the ratio tends to (sqrt3/pi) / K as lam grows (Weyl
    asymptotics); beta = delta = 0.5 lie in the unit regime, K = 1."""

    LAMBDAS = ((1e2, 64), (1e3, 201), (1e4, 400))  # coupling, truncation

    @pytest.mark.parametrize("operator, tol", [("h1", 5e-4), ("h2", 2e-2)])
    def test_ratio_approaches_the_weyl_limit(self, operator, tol):
        for seed in (0, 1):
            w = sp1.random_psd_potential(1, 1, 1.0, [seed])[0]
            ratios = []
            for lam, n in self.LAMBDAS:
                pot = sp1.MatrixPotential(lam * w.coeffs)
                if operator == "h1":
                    report = sp1.verify_bound_h1([pot], 1.0, 0.5, 1.5, n_max=n)[0]
                else:
                    report = sp1.verify_bound_h2([pot], 0.5, 1.5, n_max=n)[0]
                ratios.append(report.ratio)
            assert ratios == sorted(ratios), (seed, ratios)
            assert abs(ratios[-1] / (math.sqrt(3.0) / math.pi) - 1.0) <= tol, (seed, ratios)


class TestStructuralInvariants:
    def test_rayleigh_ritz_monotonicity(self):
        pot = sp1.random_psd_potential(2, 2, 1.5, [23])[0]
        means = []
        b = pot.bands[0]
        for n in (b + 4, 2 * (b + 4), 4 * (b + 4)):
            rep = sp1.negative_spectrum(sp1.assemble_h2(pot, 0.3, n))
            means.append(sp1.riesz_mean(rep, 1.0))
        assert means[0] <= means[1] + 1e-12
        assert means[1] <= means[2] + 1e-12

    def test_truncation_convergence(self):
        pot = sp1.random_psd_potential(2, 3, 1.0, [31])[0]
        n = pot.bands[0] + 32
        rep_a = sp1.negative_spectrum(sp1.assemble_h2(pot, 0.2, n))
        rep_b = sp1.negative_spectrum(sp1.assemble_h2(pot, 0.2, 2 * n))
        a, b = sp1.riesz_mean(rep_a, 1.0), sp1.riesz_mean(rep_b, 1.0)
        assert a == pytest.approx(b, rel=1e-8)

    def test_gauge_invariance(self):
        pot = sp1.random_psd_potential(3, 2, 1.0, [7])[0]
        q, _ = np.linalg.qr(
            np.random.default_rng(99).standard_normal((3, 3))
            + 1j * np.random.default_rng(98).standard_normal((3, 3))
        )
        conj = _hermitized_conjugation(pot, q)
        eig_a = np.linalg.eigvalsh(sp1.assemble_h2(pot, 0.4, 12))
        eig_b = np.linalg.eigvalsh(sp1.assemble_h2(conj, 0.4, 12))
        assert np.allclose(eig_a, eig_b, atol=1e-10)

    def test_gamma_lifting_consistency(self):
        pot = sp1.random_psd_potential(2, 3, 1.5, [13])[0]
        for gamma in (1.0, 1.25, 1.5, 2.0):
            assert sp1.verify_bound_h2([pot], 0.1, gamma)[0].passed

    def test_report_json_fields(self):
        pot = sp1.MatrixPotential(constant_coeffs(2.0))
        report = sp1.verify_bound_h2([pot], 0.0, 1.0, n_max=6, seeds=[4])[0]
        payload = report.to_dict()
        for key in ("lhs", "rhs", "ratio", "pass", "gamma", "truncation", "seed"):
            assert key in payload
        assert payload["seed"] == 4
