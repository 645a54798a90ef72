"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from ltbounds import attractor, families, interp, special, spectral1d, torus
from ltbounds.attractor import FlowParams
from ltbounds.cli import main as cli_main

from oracles import constant_coeffs, f_series, g_series


def _report(n: int, text: str) -> None:
    print(f"[acceptance] criterion {n:02d} PASS: {text}")


def test_c01_threshold_reproduction():
    t0 = time.perf_counter()
    bs = interp.beta_star(1e-4)
    t_bs = time.perf_counter() - t0
    t0 = time.perf_counter()
    bss = interp.beta_star_star(1e-4)
    t_bss = time.perf_counter() - t0
    assert 0.0440 <= bs <= 0.0460
    assert 0.8380 <= bss <= 0.8400
    assert t_bs < 5.0 and t_bss < 5.0
    _report(1, f"beta_star={bs:.5f} ({t_bs:.2f}s), beta_star_star={bss:.5f} ({t_bss:.2f}s)")


def test_c02_constant_identities():
    lcl = special.semiclassical_constant(1, 1)
    assert abs(lcl - 2.0 / (3.0 * math.pi)) <= 1e-12 * lcl

    # the unit regime: delta one tolerance below the K2 threshold, constant K = 1
    assert torus.choose_betas(torus.TorusGeometry((1.0, 1.0))).delta <= interp.beta_star_star(1e-6) - 1e-6
    bound2 = spectral1d._lt_constant(1.0, 1.0, 2)
    assert abs(bound2 - math.pi / 24.0) <= 1e-12 * bound2

    ortho = special.lt_to_orthonormal_constant(math.pi / 24.0, 2)
    assert abs(ortho - math.pi / 6.0) <= 1e-12 * ortho

    for gamma in (1.0, 1.5, 2.0):
        for d in range(1, 7):
            prod, direct = special.product_identity_check(gamma, d)
            assert abs(prod - direct) <= 1e-12 * direct
    _report(2, "2/(3pi), pi/24, pi/6 and the product identity all hold to 1e-12")


def test_c03_unit_regime_claim():
    rng = np.random.default_rng(2024)
    limit = interp.beta_star_star(1e-6) - 1e-6
    t0 = time.perf_counter()
    for _ in range(10_000):
        d = int(rng.integers(2, 20))
        alphas = np.clip(np.sort(rng.uniform(0.0, 1.0, size=d - 1)), 1e-9, 1.0)
        geom = torus.TorusGeometry(tuple(float(a) for a in alphas) + (1.0,))
        assert torus.choose_betas(geom).delta <= limit  # a geometry outside the unit regime raises
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"10^4 random geometries with d <= 19 all in the unit regime ({elapsed:.2f}s)")


def test_c04_k_constant_plateaus_and_monotonicity():
    for beta in np.linspace(0.05, 5.0, 20):
        assert abs(interp.k1(float(beta)).value - 1.0) <= 1e-6
    for beta in np.linspace(0.0, 0.83, 20):
        assert abs(interp.k2(float(beta)).value - 1.0) <= 1e-6
    k1_vals = [interp.k1(float(b)).value for b in np.linspace(0.005, 2.0, 100)]
    for prev, cur in zip(k1_vals, k1_vals[1:]):
        assert cur <= prev + 1e-10
    k2_vals = [interp.k2(float(b)).value for b in np.linspace(0.0, 0.995, 100)]
    for prev, cur in zip(k2_vals, k2_vals[1:]):
        assert cur >= prev - 1e-10
    _report(4, "plateaus at 1 within 1e-6 and 100-point monotonicity grids hold")


def test_c05_closed_form_vs_series():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        lam = 10.0 ** rng.uniform(-4, 4)
        beta = rng.uniform(0.05, 5.0)
        worst = max(worst, abs(interp.g_objective(lam, beta) - g_series(lam, beta)))
    for _ in range(20):
        lam = 10.0 ** rng.uniform(-4, 4)
        beta = rng.uniform(0.0, 0.99)
        worst = max(worst, abs(interp.f_objective(lam, beta) - f_series(lam, beta)))
    assert worst <= 1e-9
    _report(5, f"objectives match 1e5-term series with tail to {worst:.2e} (<= 1e-9)")


def test_c06_one_dimensional_spectral_bounds():
    t0 = time.perf_counter()
    # exact constant-potential enumerations
    pot2 = spectral1d.MatrixPotential(constant_coeffs(2.0))
    rep_h1 = spectral1d.verify_bound_h1([pot2], 1.0, 1.0, 1.0, n_max=32)[0]
    assert rep_h1.lhs == 1.0 and rep_h1.passed
    rep_h2 = spectral1d.verify_bound_h2([pot2], 0.0, 1.0, n_max=32)[0]
    assert rep_h2.lhs == 2.0 and rep_h2.passed

    gammas = (1.0, 1.5, 2.0)
    betas = (0.05, 0.5, 1.0)
    deltas = (0.0, 0.5, 0.839)
    worst = 0.0
    for seed in range(50):
        m_dim = 1 + seed % 3
        band = 1 + seed % 2  # stored band 2 or 4 after squaring
        gamma = gammas[seed % 3]
        pot = spectral1d.random_psd_potential(m_dim, band, 1.0, [seed])[0]
        rep = spectral1d.verify_bound_h1(
            [pot], 1.0, betas[seed % 3], gamma, n_max=pot.bands[0] + 32, seeds=[seed]
        )[0]
        assert rep.passed and rep.ratio <= 1.0 and rep.metadata["certified"], rep.to_dict()
        worst = max(worst, rep.ratio)
    for seed in range(50):
        m_dim = 1 + seed % 3
        band = 1 + seed % 2
        gamma = gammas[seed % 3]
        pot = spectral1d.random_psd_potential(m_dim, band, 1.0, [1000 + seed])[0]
        rep = spectral1d.verify_bound_h2(
            [pot], deltas[seed % 3], gamma, n_max=pot.bands[0] + 32, seeds=[seed]
        )[0]
        assert rep.passed and rep.ratio <= 1.0 and rep.metadata["certified"], rep.to_dict()
        worst = max(worst, rep.ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, f"100 random 1D bounds pass and are certified, max ratio {worst:.3f}; "
               f"enumerations exact ({elapsed:.1f}s)")


def test_c07_torus_bounds():
    t0 = time.perf_counter()
    const_pot = torus.ScalarPotentialD(constant_coeffs(2.0, d=2))
    geom_square = torus.TorusGeometry((1.0, 1.0))
    rep = torus.verify_bound_torus([const_pot], geom_square, 1.0)[0]
    assert rep.lhs == 2.0
    assert rep.rhs == pytest.approx(2.0 * math.pi**3 / 3.0, rel=1e-10)
    assert rep.passed

    worst = 0.0
    for alpha1 in (1.0, 0.5, 0.25):
        geom = torus.TorusGeometry((alpha1, 1.0))
        for gamma in (1.0, 2.0):
            rep = torus.verify_bound_torus([const_pot], geom, gamma)[0]
            assert rep.passed, rep.to_dict()
            for seed in range(10):
                pot = torus.ScalarPotentialD.random(2, 1, 1.0, [seed])[0]
                rep = torus.verify_bound_torus([pot], geom, gamma, seeds=[seed])[0]
                assert rep.passed, rep.to_dict()
                worst = max(worst, rep.ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, f"66 torus bounds pass, max random ratio {worst:.3f} ({elapsed:.1f}s)")


def test_c08_trace_inequalities():
    # closed-form pair {cos x/sqrt(pi), sin x/sqrt(pi)}
    coeffs = np.zeros((2, 3, 1), dtype=complex)
    r = 1.0 / math.sqrt(2.0)
    coeffs[0, 2, 0] = coeffs[0, 0, 0] = r
    coeffs[1, 2, 0] = -1j * r
    coeffs[1, 0, 0] = 1j * r
    fam = families.OrthonormalFamily(coeffs)
    rep = families.verify_trace2([fam], 0.0)[0]
    assert abs(rep.lhs - 2.0 / math.pi**2) <= 1e-10
    assert rep.rhs == pytest.approx(2.0, rel=1e-12)

    for seed in range(100):
        n = 1 + seed % 4
        m = 1 + seed % 3
        band = 1 + seed % 4
        fam1 = families.random_orthonormal_family(n, m, band, False, [seed])
        assert families.verify_trace1(fam1, 1.0, 0.05 + 0.2 * (seed % 5), seeds=[seed])[0].passed
        fam2 = families.random_orthonormal_family(n, m, band, True, [500 + seed])
        assert families.verify_trace2(fam2, 0.1 * (seed % 9), seeds=[seed])[0].passed
    _report(8, "closed-form trace example exact; 100 random families pass both bounds")


def test_c09_attractor_formulas():
    p = FlowParams(nu=1.0, mu=1.0, length=1.0, grad_g_norm=1.0)
    square = attractor.dim_bound_square(p)
    assert abs(square - 3.0 / 16.0) <= 1e-12
    # second branch coefficient 3/(2 sqrt 2) shows up once the first exceeds it
    p_big = FlowParams(nu=1.0, mu=1.0, length=1.0, grad_g_norm=100.0)
    assert abs(attractor.dim_bound_square(p_big) - (3.0 / (2.0 * math.sqrt(2.0))) * 100.0) <= 1e-9

    elong = attractor.dim_bound_elongated(p)
    assert abs(elong - (math.pi / 12.0 + math.sqrt(math.pi))) <= 1e-12
    with pytest.raises(attractor.ValidityError):
        attractor.dim_bound_elongated(FlowParams(nu=9.0, mu=1.0, length=1.0, grad_g_norm=1.0))
    _report(9, "coefficients 3/16, 3/(2sqrt2), pi/12+sqrt(pi) reproduced; guard enforced")


def test_c10_negative_control(capsys, tmp_path):
    out = tmp_path / "fault.json"
    code = cli_main([
        "verify", "--kind", "h2", "--seeds", "3", "--rhs-scale", "0.01",
        "--out", str(out),
    ])
    assert code == 1
    doc = json.loads(out.read_text())
    failing = [rep for rep in doc["reports"] if not rep["pass"]]
    assert len(failing) >= 1
    assert doc["all_pass"] is False
    _report(10, f"fault injection produced {len(failing)} failing reports and exit code 1")


def test_c11_one_bound_state_well():
    # W_k = (alpha/2) sqrt(3/4) sech(pi k alpha/2) is w = sqrt(3/4) sech on the
    # period 2 pi/alpha, so V = |w|^2 is the Poschl-Teller well (3/4) sech^2
    # (nu = 1/2), whose one eigenvalue -1/4 gives the h1 ratio 2/pi on the line.
    t0 = time.perf_counter()
    ratios = []
    for alpha, w_band in ((0.25, 30), (0.125, 60), (0.0625, 120)):
        k = np.arange(-w_band, w_band + 1)
        w = (alpha / 2.0) * math.sqrt(0.75) / np.cosh(math.pi * k * alpha / 2.0)
        v = spectral1d._autocorrelation(w.astype(complex)[None, :, None, None])[0]
        rep = spectral1d.verify_bound_h1([spectral1d.MatrixPotential(v)], alpha, 0.05, 1.0)[0]
        assert rep.metadata["certified"] is True and rep.metadata["negative_count"] == 1, rep.to_dict()
        ratios.append(rep.ratio)
    limit = 2.0 / math.pi
    assert ratios[0] < ratios[1] < ratios[2] < limit
    assert limit - ratios[2] <= 1e-3
    elapsed = time.perf_counter() - t0
    _report(11, f"one-bound-state well ratios {', '.join(f'{r:.5f}' for r in ratios)} "
                f"rise toward 2/pi = {limit:.5f} ({elapsed:.1f}s)")
