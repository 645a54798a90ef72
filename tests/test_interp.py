import json
import math
import re

import numpy as np
import pytest

from ltbounds import interp
from ltbounds.reports import ConvergenceError

from oracles import dense_grid_max, f_series, g_series, lattice_sum

# Regression anchors computed with this solver at tol=1e-8; the quoted
# 3-decimal values they refine are 0.045 and 0.839.
BETA_STAR_REF = 0.0445031244
BETA_STAR_STAR_REF = 0.8396872193


class TestObjectives:
    def test_g_large_lambda_limit(self):
        assert interp.g_objective(1e8, 0.5) == pytest.approx(1.0, abs=1e-3)

    def test_g_near_flat_sup(self):
        # Value frozen from the direct-series oracle.
        val = interp.g_objective(1.0, 0.045)
        assert val == pytest.approx(0.9814140009972582, rel=1e-12)
        assert val == pytest.approx(g_series(1.0, 0.045), abs=1e-12)

    def test_g_small_lambda(self):
        # Small-lam expansion: sqrt(lam) * coth(pi) + O(lam^1.5) for beta = 1.
        assert interp.g_objective(1e-6, 1.0) == pytest.approx(
            1e-3 / math.tanh(math.pi), rel=1e-6
        )

    def test_g_validation(self):
        with pytest.raises(ValueError):
            interp.g_objective(0.0, 0.5)
        with pytest.raises(ValueError):
            interp.g_objective(1.0, 0.0)

    def test_f_large_lambda_limit(self):
        assert interp.f_objective(1e8, 0.5) == pytest.approx(1.0, abs=1e-3)

    def test_f_at_removable_point(self):
        # lam = beta: the quotient passes through pi/3; direct series oracle
        # gives sqrt(0.5) * pi/3.
        val = interp.f_objective(0.5, 0.5)
        assert val == pytest.approx(math.sqrt(0.5) * math.pi / 3.0, rel=1e-12)
        assert val == pytest.approx(f_series(0.5, 0.5), abs=1e-10)

    def test_f_small_lambda_beta_zero(self):
        assert interp.f_objective(1e-6, 0.0) == pytest.approx(
            math.sqrt(1e-6) * math.pi / 3.0, rel=1e-5
        )

    def test_f_validation(self):
        with pytest.raises(ValueError):
            interp.f_objective(1.0, 1.0)
        with pytest.raises(ValueError):
            interp.f_objective(-1.0, 0.5)

    def test_nan_lambda_is_rejected_on_both_paths(self):
        for objective, message in ((interp.g_objective, "g_objective"), (interp.f_objective, "f_objective")):
            with pytest.raises(ValueError, match=f"{message} requires lambda > 0"):
                objective(math.nan, 0.5)
            with pytest.raises(ValueError, match=f"{message} requires lambda > 0"):
                objective(np.array([1.0, math.nan]), 0.5)
        with pytest.raises(ValueError, match="g_objective requires beta > 0"):
            interp.g_objective(1.0, math.nan)

    @pytest.mark.parametrize("beta", [1e-4, 0.045, 0.5, 0.839, 0.999])
    def test_float_path_is_bitwise_the_array_path(self, beta):
        # The golden-section search evaluates floats, the grid an array; the
        # two must round alike.  lam near beta puts lam - beta on the series
        # seams and through zero, tiny lam puts it near -beta.
        near = [beta + d for d in np.linspace(-0.02, 0.02, 401) if beta + d > 0]
        lams = np.concatenate([np.geomspace(1e-10, 1e9, 1500), near, [beta]])
        for lam in map(float, lams):
            for objective in (interp.g_objective, interp.f_objective):
                assert objective(lam, beta) == objective(np.array([lam]), beta)[0], lam.hex()

    def test_series_cross_validation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = 10.0 ** rng.uniform(-4, 4)
            beta = rng.uniform(0.05, 5.0)
            assert interp.g_objective(lam, beta) == pytest.approx(g_series(lam, beta), abs=1e-9)
        for _ in range(20):
            lam = 10.0 ** rng.uniform(-4, 4)
            beta = rng.uniform(0.0, 0.99)
            assert interp.f_objective(lam, beta) == pytest.approx(f_series(lam, beta), abs=1e-9)

    def test_alpha_independence(self):
        # Building the mass-added objective from the explicit-alpha lattice
        # sum and substituting lam -> alpha^2 lam must give the same curve.
        def alpha_form(lam, beta, alpha):
            lam_sub = alpha * alpha * lam
            c = beta + lam_sub / (alpha * alpha)
            g = lattice_sum(c, 10**5, True) / (alpha * 2.0 * math.pi)
            return 2.0 * math.sqrt(lam_sub) * g

        grid = np.geomspace(1e-8, 1e6, 400)
        for beta in (0.02, 0.3):
            sups = []
            for alpha in (0.1, 1.0, 3.0):
                sups.append(max(alpha_form(lam, beta, alpha) for lam in grid))
            assert max(sups) - min(sups) <= 1e-10
            # and the grid sup is consistent with the solver's constant
            assert sups[0] <= interp.k1(beta).value + 1e-9


class TestK1:
    def test_plateau(self):
        res = interp.k1(0.5)
        assert res.value == 1.0
        assert res.argmax_lambda is None
        assert res.interior_max < 1.0

    def test_near_threshold(self):
        assert interp.k1(0.045).value == pytest.approx(1.0, abs=1e-3)

    def test_peaked_regime_vs_grid_oracle(self):
        res = interp.k1(0.01)
        lam_o, val_o = dense_grid_max(lambda lam: interp.g_objective(lam, 0.01), 1e-10, 1e8, 10**6)
        assert res.value > 1.0
        assert res.argmax_lambda is not None and res.argmax_lambda < 0.1
        assert res.value == pytest.approx(val_o, rel=1e-9)
        assert res.value >= val_o - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            interp.k1(0.0)


class TestK2:
    def test_beta_zero(self):
        res = interp.k2(0.0)
        assert res.value == 1.0
        assert res.argmax_lambda is None

    def test_near_threshold(self):
        assert interp.k2(0.839).value == pytest.approx(1.0, abs=1e-3)

    def test_peaked_regime_vs_grid_oracle(self):
        res = interp.k2(0.99)
        lam_o, val_o = dense_grid_max(lambda lam: interp.f_objective(lam, 0.99), 1e-10, 1e8, 10**6)
        assert res.value > 1.0
        assert res.argmax_lambda is not None
        assert res.value == pytest.approx(val_o, rel=1e-9)

    def test_tie_at_threshold_reports_finite_argmax(self):
        # At the threshold the sup is attained both at a finite lambda and at
        # infinity; the finite maximizer must be reported.  The interior
        # maximum moves ~1.7 per unit beta, so hitting the 1e-9 tie window
        # needs the threshold to a few times 1e-10.
        b = interp.beta_star_star(3e-10)
        res = interp.k2(b)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert res.argmax_lambda is not None
        assert 0.01 < res.argmax_lambda < 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            interp.k2(1.0)
        with pytest.raises(ValueError):
            interp.k2(-0.1)


class TestThresholds:
    def test_beta_star_window(self):
        assert interp.beta_star(1e-3) == pytest.approx(0.045, abs=2e-3)

    def test_beta_star_regression(self):
        assert interp.beta_star(1e-6) == pytest.approx(BETA_STAR_REF, abs=2e-6)

    def test_beta_star_self_consistency(self):
        v = interp.beta_star(1e-5)
        assert interp.k1(v + 2e-5).value == 1.0
        assert interp.k1(v - 2e-5).value > 1.0

    def test_beta_star_bracket_sanity(self):
        assert interp.k1(1e-4).value > 1.0
        assert interp.k1(1.0).value == 1.0

    def test_beta_star_star_window(self):
        assert interp.beta_star_star(1e-3) == pytest.approx(0.839, abs=2e-3)

    def test_beta_star_star_regression(self):
        assert interp.beta_star_star(1e-6) == pytest.approx(BETA_STAR_STAR_REF, abs=2e-6)

    def test_beta_star_star_self_consistency(self):
        v = interp.beta_star_star(1e-5)
        assert interp.k2(v - 2e-5).value == 1.0
        assert interp.k2(v + 2e-5).value > 1.0

    def test_beta_star_star_bracket_sanity(self):
        assert interp.k2(0.5).value == 1.0
        assert interp.k2(0.99).value > 1.0

    def test_nested_tolerances(self):
        coarse = interp.beta_star(1e-3)
        fine = interp.beta_star(1e-5)
        assert abs(coarse - fine) <= 1.1e-3

    def test_threshold_consistency_window(self):
        bs = interp.beta_star(1e-5)
        bss = interp.beta_star_star(1e-5)
        assert interp.k1(bs + 1e-4).value == pytest.approx(1.0, abs=1e-8)
        assert interp.k2(bss - 1e-4).value == pytest.approx(1.0, abs=1e-8)

    def test_threshold_solves_take_the_array_path_once_per_k_solve(self, monkeypatch):
        # Structural guard, no timing: a cold K-solve evaluates its lambda
        # grid as one array and every golden-section probe as a float, so
        # the array path is entered at most once per solve.
        from ltbounds import special

        entries = []
        as_array = special._as_array

        def counted(s):
            entries.append(1)
            return as_array(s)

        monkeypatch.setattr(special, "_as_array", counted)
        for memo in (interp.k1, interp.k2, interp.beta_star, interp.beta_star_star):
            memo.cache_clear()
        interp.beta_star(1e-6)
        interp.beta_star_star(1e-6)
        solves = interp.k1.cache_info().misses + interp.k2.cache_info().misses
        assert solves > 20
        assert len(entries) <= solves

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            interp.beta_star(0.0)
        with pytest.raises(ValueError):
            interp.beta_star_star(0.5)

    @pytest.mark.parametrize(
        "name, threshold, window",
        [("k1", interp.beta_star, (0.0440, 0.0460)), ("k2", interp.beta_star_star, (0.8380, 0.8400))],
    )
    def test_tol_below_float_spacing_terminates(self, monkeypatch, name, threshold, window):
        # A tol under the float spacing near the threshold never shrinks the
        # bracket below it; the bisection must stop once the midpoint sticks
        # (about 60 solves) instead of looping forever.
        solve = getattr(interp, name)
        calls = []

        def limited(beta):
            calls.append(beta)
            if len(calls) > 200:
                raise RuntimeError("bisection does not terminate")
            return solve(beta)

        monkeypatch.setattr(interp, name, limited)
        threshold.cache_clear()
        assert window[0] <= threshold(1e-300) <= window[1]


def _mp_g(mp, lam, beta):
    t = mp.sqrt(beta + lam)
    return mp.sqrt(lam) * mp.coth(mp.pi * t) / t


def _mp_f(mp, lam, beta):
    x = lam - beta
    h = mp.sqrt(x) * mp.coth(mp.pi * mp.sqrt(x)) if x > 0 else mp.sqrt(-x) * mp.cot(mp.pi * mp.sqrt(-x))
    return mp.sqrt(lam) * (h - 1 / mp.pi) / x


class TestThresholdCertification:
    """The thresholds at 30 digits: choose_betas works one bisection tolerance
    inside the K1 = 1 and K2 = 1 regions, so K1(beta_star + tol) and
    K2(beta_star_star - tol) must be 1, and one tol outside they must not."""

    TOL = 1e-6  # torus._THRESHOLD_TOL

    @staticmethod
    def _sup(mp, objective, float_objective, beta):
        # The float grid of interp picks the bracket around its best point;
        # golden section on log(lambda) refines it in mpmath, ends included.
        grid = np.geomspace(interp._LAMBDA_MIN, interp._LAMBDA_MAX, interp._GRID_POINTS)
        i = int(np.argmax(float_objective(grid, beta)))
        a, b = (mp.log(grid[min(max(j, 0), len(grid) - 1)]) for j in (i - 1, i + 1))

        def fn(t):
            return objective(mp, mp.exp(t), mp.mpf(beta))

        best = max(fn(a), fn(b))
        invphi = (mp.sqrt(5) - 1) / 2
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = fn(c), fn(d)
        while b - a > mp.mpf("1e-15"):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = fn(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = fn(d)
        return max(best, fc, fd)

    @pytest.mark.parametrize("name", ["k1", "k2"])
    def test_one_tol_inside_is_unit_and_one_tol_outside_is_not(self, name):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            if name == "k1":
                beta = interp.beta_star(self.TOL)
                inside, outside = beta + self.TOL, beta - self.TOL
                objective, float_objective = _mp_g, interp.g_objective
            else:
                beta = interp.beta_star_star(self.TOL)
                inside, outside = beta - self.TOL, beta + self.TOL
                objective, float_objective = _mp_f, interp.f_objective
            assert self._sup(mpmath, objective, float_objective, inside) <= 1
            assert self._sup(mpmath, objective, float_objective, outside) > 1


class TestMonotonicity:
    def test_k1_non_increasing(self):
        betas = np.linspace(0.005, 1.5, 100)
        values = [interp.k1(float(b)).value for b in betas]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-10
        assert all(v >= 1.0 for v in values)

    def test_k2_non_decreasing(self):
        betas = np.linspace(0.0, 0.995, 100)
        values = [interp.k2(float(b)).value for b in betas]
        for prev, cur in zip(values, values[1:]):
            assert cur >= prev - 1e-10
        assert all(v >= 1.0 for v in values)


class TestSeriesBoundCheck:
    # The lattice-sum side of the defining inequalities of K1/K2 against
    # K * pi / sqrt(lam): sum_k 1/(k^2 + beta + lam) for K1, and the
    # zero-mean sum_{k != 0} 1/(k^2 + lam - beta) for K2.
    def test_k1_case(self):
        lhs = lattice_sum(0.5 + 1.0, 100_000, include_zero=True)
        rhs = interp.k1(0.5).value * math.pi / math.sqrt(1.0)
        assert lhs < rhs

    def test_k2_closed_form(self):
        lhs = lattice_sum(1.0 - 0.0, 100_000, include_zero=False)
        rhs = interp.k2(0.0).value * math.pi / math.sqrt(1.0)
        assert lhs == pytest.approx(math.pi / math.tanh(math.pi) - 1.0, abs=1e-10)
        assert rhs == pytest.approx(math.pi, rel=1e-12)
        assert lhs <= rhs

    def test_k2_near_threshold(self):
        lhs = lattice_sum(0.5 - 0.839, 100_000, include_zero=False)
        rhs = interp.k2(0.839).value * math.pi / math.sqrt(0.5)
        assert lhs <= rhs

    def test_validation(self):
        with pytest.raises(ValueError):
            interp.k1(-1.0)


class TestCurveExport:
    def test_k1_monotone_table(self):
        table = interp.export_curve("k1", 0.01, 0.5, 50)
        values = [r[1] for r in table.rows]
        assert len(table.rows) == 50
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-10

    def test_k2_monotone_table(self):
        table = interp.export_curve("k2", 0.0, 0.99, 50)
        values = [r[1] for r in table.rows]
        for prev, cur in zip(values, values[1:]):
            assert cur >= prev - 1e-10
        assert values[-1] > 1.0

    def test_plateau_is_flat_one(self):
        table = interp.export_curve("k1", 0.045, 0.5, 10)
        for _, value, argmax in table.rows:
            assert value == pytest.approx(1.0, abs=1e-6)
            assert argmax is None

    def test_csv_schema(self):
        table = interp.export_curve("k1", 0.01, 0.5, 5)
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "beta,K,argmax_lambda"
        assert len(lines) == 6
        # plateau rows carry the inf sentinel
        assert lines[-1].endswith(",inf")

    def test_json_round_trip(self):
        table = interp.export_curve("k2", 0.0, 0.9, 4)
        payload = json.loads(json.dumps(table.to_dict()))
        assert payload["which"] == "k2"
        assert len(payload["rows"]) == 4
        assert payload["rows"][0]["K"] == table.rows[0][1]

    def test_validation(self):
        with pytest.raises(ValueError):
            interp.export_curve("k1", 0.5, 0.1, 10)
        with pytest.raises(ValueError):
            interp.export_curve("k1", 0.1, 0.5, 1)

    def test_non_monotone_curve_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(interp, "k1", lambda beta: interp.ConstantResult(beta, 1.0 + beta, None, 1.0 + beta))
        with pytest.raises(ConvergenceError, match="k1 curve failed monotonicity"):
            interp.export_curve("k1", 0.1, 0.5, 5)

    @pytest.mark.parametrize(
        "which, lo, hi, message",
        [
            ("k2", 0.5, 1.2, "k2 requires beta in [0, 1)"),
            ("k2", -0.1, 0.5, "k2 requires beta in [0, 1)"),
            ("k1", 0.0, 0.5, "k1 requires beta > 0"),
        ],
    )
    def test_range_rejected_before_any_solve(self, monkeypatch, which, lo, hi, message):
        calls = []
        for name in ("k1", "k2"):
            monkeypatch.setattr(interp, name, lambda beta: calls.append(beta))
        with pytest.raises(ValueError, match=re.escape(message)):
            interp.export_curve(which, lo, hi, 50)
        assert calls == []


class TestConstantResultInvariants:
    def test_value_floor_and_argmax_rule(self):
        for beta in (0.01, 0.03, 0.1, 0.8, 2.0):
            res = interp.k1(beta)
            assert res.value == max(1.0, res.interior_max)
            if res.interior_max > 1.0 + 1e-9:
                assert res.argmax_lambda is not None
            if res.interior_max < 1.0 - 1e-9:
                assert res.argmax_lambda is None
