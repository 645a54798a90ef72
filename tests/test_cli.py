import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltbounds import __version__, cli, families, interp, spectral1d, torus
from ltbounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_shell(argv: str) -> subprocess.CompletedProcess:
    # A fresh interpreter with warnings shown, as in a shell: pytest captures
    # the RuntimeWarnings an overflow would print.
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    return subprocess.run(
        [sys.executable, "-m", "ltbounds", *argv.split()],
        capture_output=True, text=True, env=env, timeout=300,
    )


class TestConstants:
    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, "constants", "--gamma", "1", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["semiclassical_constant"] == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-12)
        assert doc["torus_bound_constant"] == pytest.approx(math.pi / 24.0, rel=1e-12)
        assert doc["version"] == __version__
        assert "seed" in doc["config"]

    def test_one_dimensional(self, capsys):
        code, out, _ = run(capsys, "constants", "--gamma", "1", "--d", "1")
        doc = json.loads(out)
        assert doc["semiclassical_constant"] == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-12)
        assert doc["torus_bound_constant"] == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), rel=1e-12)

    def test_invalid_dimension(self, capsys):
        code, _, err = run(capsys, "constants", "--d", "0")
        assert code == 2
        assert "error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "constants", "--frobnicate", "1")
        assert code == 2


class TestKCurve:
    def test_row_count_and_schema(self, capsys):
        code, out, _ = run(capsys, "k-curve", "--which", "k1", "--min", "0.01", "--max", "0.5", "-n", "50")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "beta,K,argmax_lambda"
        assert len(lines) == 51
        # row at beta = 0.5 sits in the plateau
        last = lines[-1].split(",")
        assert float(last[0]) == 0.5
        assert float(last[1]) == 1.0
        assert last[2] == "inf"

    def test_k2_tail_exceeds_one(self, capsys):
        code, out, _ = run(capsys, "k-curve", "--which", "k2", "--min", "0", "--max", "0.99", "-n", "20")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert float(rows[-1][1]) > 1.0
        assert float(rows[0][1]) == 1.0

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "k-curve", "--which", "k1", "--min", "0.05", "--max", "0.5",
                           "-n", "3", "--format", "json")
        doc = json.loads(out)
        assert doc["command"] == "k-curve"
        assert len(doc["rows"]) == 3

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "k-curve", "--which", "k2", "--min", "0.5", "--max", "1.2")
        assert code == 2

    def test_non_monotone_solver_exits_2(self, capsys, monkeypatch):
        # A sup-search bug that breaks monotonicity is a failed run, exit 2,
        # and not a traceback (nor skipped under python -O).
        monkeypatch.setattr(interp, "k2", lambda beta: interp.ConstantResult(beta, 2.0 - beta, None, 2.0 - beta))
        code, out, err = run(capsys, "k-curve", "--which", "k2", "--min", "0", "--max", "0.5", "-n", "4")
        assert code == 2
        assert out == ""
        assert "k2 curve failed monotonicity" in err

    def test_a_curve_no_allocation_can_hold_exits_2(self, capsys):
        # 10^17 float64 values are 8e17 bytes, past any 64-bit address space,
        # so numpy's allocation fails at once and touches no page
        code, out, err = run(capsys, "k-curve", "-n", "100000000000000000")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.splitlines() == [err.strip()]

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "k-curve", "-n", "3", "--min", "0.1", "--max", "0.3",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("beta,K,argmax_lambda")


class TestThresholds:
    def test_fields_and_windows(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--tol", "1e-4")
        assert code == 0
        doc = json.loads(out)
        assert 0.0440 <= doc["beta_star"] <= 0.0460
        assert 0.8380 <= doc["beta_star_star"] <= 0.8400
        assert doc["tol"] == 1e-4

    def test_nested_tolerances(self, capsys):
        _, out_a, _ = run(capsys, "thresholds", "--tol", "1e-3")
        _, out_b, _ = run(capsys, "thresholds", "--tol", "1e-5")
        a, b = json.loads(out_a), json.loads(out_b)
        assert abs(a["beta_star"] - b["beta_star"]) <= 1.1e-3
        assert abs(a["beta_star_star"] - b["beta_star_star"]) <= 1.1e-3

    def test_bad_tol(self, capsys):
        code, _, _ = run(capsys, "thresholds", "--tol", "0.5")
        assert code == 2


# Each is rejected by a library ValueError (or the CLI's own --alpha check)
# and must end in exit 2 with a one-line error, never a traceback.
BAD_ARGV = [
    "constants --d 0",
    "constants --gamma -1",
    "k-curve --which k1 --min 0",
    "k-curve --which k2 --min 0.5 --max 1.2",
    "k-curve -n 1",
    "k-curve --min 0.5 --max 0.1",
    "thresholds --tol 0.5",
    "verify --kind h1 --beta 0",
    "verify --kind trace1 --beta 0",
    "verify --kind h2 --delta 1",
    "verify --kind trace2 --delta -0.1",
    "verify --kind torus --d 1",
    "verify --kind torus --alpha 1.5",
    "verify --kind h1 --alpha 0",
    "verify --kind trace1 --alpha 0",
    "verify --kind torus --alpha 0",
    # 15,000 rows: over the dense budget, rejected before any allocation
    "verify --kind torus --d 3 --band 0 --seeds 1",
    # the Riesz mean |lambda|^gamma overflows to inf: no verdict is possible
    "verify --kind h2 --gamma 400 --scale 3 --seeds 1",
    "verify --kind torus --gamma 300 --scale 3 --seeds 1",
    # mu^3 underflows to 0 and the formula divides by it
    "attractor --nu 1e300 --mu 1e-300",
]

# argparse's finite-float type rejects these while parsing, after printing
# the usage line.
NON_FINITE_ARGV = [
    "verify --kind h2 --gamma nan",
    "verify --kind trace1 --beta nan",
    "verify --kind h2 --rhs-scale nan",
    "verify --kind trace1 --beta inf",
    "verify --kind h2 --rhs-scale inf",
    "constants --gamma nan",
    "attractor --grad-g inf",
    "k-curve --max nan",
]


class TestVerify:
    def test_h2_batch_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "h2", "--seeds", "5", "--gamma", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert len(doc["reports"]) == 5
        seeds = [rep["seed"] for rep in doc["reports"]]
        assert seeds == sorted(seeds)

    def test_torus_batch(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "torus", "--d", "2", "--alpha", "0.25",
                           "--seeds", "2", "--band", "1")
        assert code == 0
        doc = json.loads(out)
        assert all(rep["pass"] for rep in doc["reports"])

    def test_trace_kinds(self, capsys):
        for kind, extra in (("trace1", ["--beta", "0.5"]), ("trace2", ["--delta", "0.5"])):
            code, out, _ = run(capsys, "verify", "--kind", kind, "--seeds", "3", *extra)
            assert code == 0, out

    def test_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "h2", "--seeds", "3",
                           "--rhs-scale", "0.01")
        assert code == 1
        doc = json.loads(out)
        assert not doc["all_pass"]
        assert any(not rep["pass"] for rep in doc["reports"])
        assert all(rep["rhs_scale"] == 0.01 for rep in doc["reports"])

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(capsys, "verify", "--kind", "h1", "--seeds", "4",
                             "--beta", "0.3", "--out", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv, prefix",
        [pytest.param(row, "error:", id=row.replace(" ", "_")) for row in BAD_ARGV]
        # argparse rejects an unknown kind itself, after printing the usage line
        + [pytest.param("verify --kind h7", "usage:", id="verify_--kind_h7")]
        + [pytest.param(row, "usage:", id=row.replace(" ", "_")) for row in NON_FINITE_ARGV],
    )
    def test_bad_kind_and_params(self, capsys, argv, prefix):
        code, _, err = run(capsys, *argv.split())
        assert code == 2
        assert err.startswith(prefix)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        ["verify --kind h1 --gamma 0.2 --seeds 1",
         "verify --kind h2 --gamma 0.5 --seeds 1",
         # the 15,000-row 3-torus is over the budget, but gamma is checked first
         "verify --kind torus --d 3 --band 0 --gamma 0.5 --seeds 1"],
    )
    def test_gamma_below_one_exits_2(self, capsys, argv):
        assert run(capsys, *argv.split()) == (2, "", "error: gamma must be >= 1\n")

    @pytest.mark.parametrize(
        "argv",
        ["verify --kind h2 --gamma 400 --scale 3 --seeds 1",
         "verify --kind torus --gamma 300 --scale 3 --seeds 1",
         # finite coefficients whose values on the phase grid overflow
         "verify --kind torus --scale 1e153 --seeds 1",
         # kinetic weights (alpha k)^2 that overflow
         "verify --kind trace1 --alpha 1e160 --seeds 1",
         "verify --kind trace1 --alpha 1e300 --seeds 1"],
    )
    def test_overflow_prints_one_stderr_line(self, argv):
        proc = run_in_shell(argv)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: bound sides must be finite")

    @pytest.mark.parametrize("alpha", ["1e160", "1e300"])
    def test_overflowing_kinetic_weights_print_one_stderr_line(self, alpha):
        # (alpha k)^2 overflows to inf, which the h1 matrix check rejects
        proc = run_in_shell(f"verify --kind h1 --alpha {alpha} --seeds 1")
        assert proc.returncode == 2
        assert proc.stderr == "error: matrix contains non-finite entries\n"

    @pytest.mark.parametrize(
        "argv",
        ["verify --kind h1 --scale 1e160 --seeds 1",
         "verify --kind h2 --scale 1e200 --seeds 1",
         "verify --kind torus --scale 1e200 --seeds 1"],
        ids=lambda argv: argv.replace(" ", "_"),
    )
    def test_overflowing_coefficients_exit_2(self, capsys, argv):
        # W W^H overflows.  pytest captures the RuntimeWarning a shell would
        # show, so warnings are made errors here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, *argv.split()) == (2, "", "error: potential coefficients must be finite\n")

    @pytest.mark.parametrize("kind", ["h1", "h2"])
    def test_huge_finite_coefficients_bound_s_without_a_warning(self, capsys, kind):
        # coefficients near 1e200: s = sum_k ||V_k||_2 must not square them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "--kind", kind, "--scale", "1e100", "--seeds", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["reports"][0]["lhs_upper"] is None

    def test_torus_quadrature_converges_just_above_gamma_one(self, capsys):
        # at 8 nodes per mode seed 45's integral of V^2.1 moved 1.6e-8
        # (relative) under grid doubling
        argv = "verify --kind torus --band 1 --gamma 1.1 --seed-base 45 --seeds 1"
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert json.loads(out)["reports"][0]["quadrature"] == [80, 80]

    def test_quadrature_drift_exits_2(self, capsys, monkeypatch):
        # the 4-nodes-per-mode minimum is too coarse for V^2.1
        monkeypatch.setattr(
            torus, "_quad_nodes", lambda pot: tuple(4 * (2 * b + 1) for b in pot.bands)
        )
        code, _, err = run(capsys, *"verify --kind torus --band 1 --gamma 1.1 --seeds 1".split())
        assert code == 2
        assert err == "error: power integral moved 9.723e-04 under grid doubling\n"

    def test_grid_over_the_dense_budget_exits_2(self, capsys, monkeypatch):
        # the 5-torus sampler's 4^5 nodes exceed a budget of 31^2 entries
        monkeypatch.setattr(spectral1d, "ROW_BUDGET", 31)
        code, _, err = run(capsys, *"verify --kind torus --d 5 --band 0 --seeds 1".split())
        assert code == 2
        assert err.startswith("error:") and "budget" in err
        assert err.splitlines() == [err.strip()]

    def test_torus_band_no_budget_can_cover_exits_before_the_autocorrelation(self, capsys, monkeypatch):
        # V's band 4 on the 7-torus: its smallest covering Galerkin matrix has
        # 9^6 * 8 rows, so the (9^7)/2-offset autocorrelation must not start
        def refuse(w):
            raise AssertionError("autocorrelation ran for an uncoverable band")

        monkeypatch.setattr(spectral1d, "_autocorrelation", refuse)
        code, _, err = run(capsys, *"verify --kind torus --d 7 --seeds 1".split())
        assert (code, err) == (2, "error: Galerkin size 4251528 exceeds the dense budget 10000 rows\n")
        monkeypatch.undo()
        # a coverable band over the budget at the default truncation keeps the late message
        code, _, err = run(capsys, *"verify --kind torus --d 3 --band 0 --seeds 1".split())
        assert (code, err) == (2, "error: Galerkin size 15000 exceeds the dense budget 10000 rows\n")

    def test_trace_family_over_the_dense_budget_exits_2_before_the_draw(self, capsys, monkeypatch):
        # the density's FFT would pad 20,000 members to 401 x 100 modes each
        def refuse(seed):
            raise AssertionError("a family over the budget was drawn")

        monkeypatch.setattr("numpy.random.default_rng", refuse)
        argv = "verify --kind trace1 --m-dim 100 --band 100 --family-size 20000 --seeds 1"
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == "error: a family of 20000 members exceeds the dense budget\n"

    def test_torus_default_truncation_rejected_before_the_potential(self, capsys, monkeypatch):
        # V's band 4 on the 4-torus fits a 5,832-row matrix, but the default
        # truncation 16 per axis needs 1,149,984 rows: known from the band alone
        def refuse(w):
            raise AssertionError("the potential was built for an oversized default truncation")

        monkeypatch.setattr(spectral1d, "_autocorrelation", refuse)
        code, _, err = run(capsys, *"verify --kind torus --d 4 --seeds 1".split())
        assert (code, err) == (2, "error: Galerkin size 1149984 exceeds the dense budget 10000 rows\n")

    @pytest.mark.parametrize("kind", ["h1", "h2"])
    def test_1d_quadrature_budget_rejects_before_any_eigensolve(self, capsys, monkeypatch, kind):
        # V's band 6 at --m-dim 2: the PSD sampler's 512 nodes (2,048 entries)
        # fit 50^2, the doubled quadrature grid's 832 nodes (3,328) do not,
        # and that check runs before the Galerkin truncations
        def refuse(matrix):
            raise AssertionError("eigensolve ran before the quadrature's budget check")

        monkeypatch.setattr(spectral1d, "negative_spectrum", refuse)
        monkeypatch.setattr(spectral1d, "ROW_BUDGET", 50)
        code, _, err = run(capsys, "verify", "--kind", kind, "--band", "3", "--seeds", "1")
        assert (code, err) == (2, "error: a grid of 832 nodes exceeds the dense budget\n")

    @pytest.mark.parametrize("kind", cli.VERIFY_KINDS)
    def test_negative_seed_base_exits_2_before_any_draw(self, capsys, monkeypatch, kind):
        # numpy's default_rng would reject it with its own message
        def refuse(seed):
            raise AssertionError("a seed was drawn")

        monkeypatch.setattr("numpy.random.default_rng", refuse)
        argv = ["verify", "--kind", kind, "--seed-base", "-5", "--seeds", "2"]
        assert run(capsys, *argv) == (2, "", "error: --seed-base must be >= 0\n")

    def test_seeds_run_in_order_on_the_main_thread(self, capsys, monkeypatch):
        # BLAS threads are the only parallelism: a seed pool on top of them
        # oversubscribes the cores.  The 1D kinds stack consecutive seeds, at
        # most cli._BATCH to a stack.
        calls, stacks = [], []
        verify_batch, autocorrelation = cli._verify_batch, spectral1d._autocorrelation

        def recording(kind, args, seeds):
            calls.append((list(seeds), threading.current_thread() is threading.main_thread()))
            return verify_batch(kind, args, seeds)

        def stacked(w):
            stacks.append(len(w))
            return autocorrelation(w)

        monkeypatch.setattr(cli, "_verify_batch", recording)
        monkeypatch.setattr(spectral1d, "_autocorrelation", stacked)
        assert run(capsys, "verify", "--kind", "h2", "--seeds", "4")[0] == 0
        assert calls == [([0, 1, 2, 3], True)]
        calls.clear()
        stacks.clear()
        assert run(capsys, "verify", "--kind", "h2", "--seeds", "40")[0] == 0
        assert [seed for chunk, _ in calls for seed in chunk] == list(range(40))
        assert all(main for _, main in calls)
        assert sum(stacks) == 40 and max(stacks) == cli._BATCH

    @pytest.mark.parametrize("kind", ["h1", "h2", "trace1", "trace2", "torus"])
    def test_1d_kinds_run_through_the_public_functions(self, capsys, monkeypatch, kind):
        # one call of each per stack: 40 seeds are stacks of 16, 16 and 8,
        # and 20 torus seeds stacks of 16 and 4.  A draw's stack is its
        # seeds, the others' their first argument.
        if kind in ("h1", "h2"):
            module, names = spectral1d, ("random_psd_potential", "trace_power_integral", f"verify_bound_{kind}")
        elif kind == "torus":
            module, names = torus, ("ScalarPotentialD.random", "verify_bound_torus")
        else:
            module, names = families, ("random_orthonormal_family", "density_and_kinetic", f"verify_{kind}")
        seeds, want = (20, [16, 4]) if kind == "torus" else (40, [16, 16, 8])
        stacks = {name: [] for name in names}
        for name in names:
            owner, _, attr = name.rpartition(".")
            owner = getattr(module, owner) if owner else module

            def recording(*args, _name=name, _fn=getattr(owner, attr), **kwargs):
                stacks[_name].append(len(args[-1] if "random" in _name else args[0]))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, recording)
        assert run(capsys, "verify", "--kind", kind, "--seeds", str(seeds))[0] == 0
        assert stacks == {name: want for name in names}

    def test_large_seeds_are_stacked_fewer_at_a_time(self, capsys, monkeypatch):
        # a default h2 seed holds at most 2 * 64 * 9 * 2 = 2,304 entries in one stacked array
        stacks = []
        autocorrelation = spectral1d._autocorrelation

        def stacked(w):
            stacks.append(len(w))
            return autocorrelation(w)

        monkeypatch.setattr(spectral1d, "_autocorrelation", stacked)
        monkeypatch.setattr(cli, "_BATCH_ENTRIES", 3 * 2304)
        assert run(capsys, "verify", "--kind", "h2", "--seeds", "7")[0] == 0
        assert stacks == [3, 3, 1]

    @pytest.mark.parametrize("flags, size", [
        # a torus seed's PSD grid: 4 * 73 nodes per axis at band 18, 2**20 // 292**2 = 12
        ("--kind torus --band 18", 12), ("--kind torus", 16),
        ("--kind h1", 16), ("--kind h1 --m-dim 8 --band 10", 6),
        ("--kind trace1", 16), ("--kind trace1 --family-size 20000", 2),
    ])
    def test_stack_size_follows_each_kinds_largest_array(self, flags, size):
        assert cli._batch_size(cli._build_parser().parse_args(["verify", *flags.split()])) == size

    @pytest.mark.parametrize("flags", ["--kind h1", "--kind h2", "--kind h2 --m-dim 1",
                                       "--kind trace1", "--kind trace2"])
    def test_a_seeds_report_does_not_depend_on_the_other_seeds(self, capsys, flags):
        # 40 seeds cross a stack boundary; each seed's report must be the
        # one it gets alone
        code, out, _ = run(capsys, "verify", *flags.split(), "--seeds", "40")
        assert code == 0
        reports = json.loads(out)["reports"]
        for seed in (0, cli._BATCH - 1, cli._BATCH, 39):
            code, out, _ = run(capsys, "verify", *flags.split(), "--seeds", "1", "--seed-base", str(seed))
            alone, = json.loads(out)["reports"]
            assert json.dumps(reports[seed], sort_keys=True) == json.dumps(alone, sort_keys=True)

    def test_each_constant_is_solved_once_per_beta(self, capsys, monkeypatch):
        # every seed asks for K1(0.5) (h1) or K2(0.5) (trace2); the memo in
        # interp answers all but the first
        solved = []
        constant = interp._constant

        def counting(fn, probe, beta):
            solved.append(beta)
            return constant(fn, probe, beta)

        monkeypatch.setattr(interp, "_constant", counting)
        interp.k1.cache_clear()
        interp.k2.cache_clear()
        for kind in ("h1", "trace2"):
            assert run(capsys, "verify", "--kind", kind, "--seeds", "12")[0] == 0
        assert solved == [0.5, 0.5]


def _draw(kind, seeds):
    """The potentials or families of the seeds, at the CLI's defaults."""
    if kind in ("h1", "h2"):
        return spectral1d.random_psd_potential(2, 2, 1.0, seeds)
    if kind == "torus":
        return torus.ScalarPotentialD.random(2, 2, 1.0, seeds)
    return families.random_orthonormal_family(3, 2, 2, kind == "trace2", seeds)


# each kind's verifier at the CLI's defaults
VERIFIERS = {
    "h1": lambda items, seeds: spectral1d.verify_bound_h1(items, 1.0, 0.5, 1.0, seeds=seeds),
    "h2": lambda items, seeds: spectral1d.verify_bound_h2(items, 0.5, 1.0, seeds=seeds),
    "torus": lambda items, seeds: torus.verify_bound_torus(items, torus.TorusGeometry((1.0, 1.0)), 1.0, seeds=seeds),
    "trace1": lambda items, seeds: families.verify_trace1(items, 1.0, 0.5, seeds=seeds),
    "trace2": lambda items, seeds: families.verify_trace2(items, 0.5, seeds=seeds),
}


@pytest.mark.parametrize("kind", list(VERIFIERS))
class TestPublicVerifierSeeds:
    def test_seeds_of_another_length_or_no_items_raise(self, kind):
        items = _draw(kind, [5, 6])
        for seeds in ([5], [5, 6, 7], []):
            with pytest.raises(ValueError, match="one seed per item"):
                VERIFIERS[kind](items, seeds)
        with pytest.raises(ValueError, match="at least one item"):
            VERIFIERS[kind]([], None)

    def test_no_seeds_add_no_seed_field(self, kind):
        reports = VERIFIERS[kind](_draw(kind, [5, 6]), None)
        assert len(reports) == 2 and all("seed" not in rep.to_dict() for rep in reports)

    def test_a_list_of_one_gives_the_clis_report(self, capsys, kind):
        code, out, _ = run(capsys, "verify", "--kind", kind, "--seeds", "1", "--seed-base", "6")
        assert code == 0
        want, = json.loads(out)["reports"]
        got, = VERIFIERS[kind](_draw(kind, [6]), [6])
        assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(want, sort_keys=True)


def _options(command, flags, required=None):
    """argv for one subcommand with any subset of flags, as --flag=value."""
    return st.fixed_dictionaries(required or {}, optional=flags).map(
        lambda chosen: [command] + [f"{flag}={value}" for flag, value in chosen.items()]
    )


NON_FINITE = ("nan", "inf", "-inf")
FLOATS = st.sampled_from(
    ("0", "-1", "0.01", "0.25", "0.5", "1", "1.5", "3", "1e-300", "1e300") + NON_FINITE
)
FLOAT_FLAGS = {
    "--gamma", "--min", "--max", "--tol", "--beta", "--delta", "--alpha", "--scale",
    "--rhs-scale", "--nu", "--mu", "--length", "--grad-g", "--aspect", "--c-lt", "--c-q",
}


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# Sizes stay small: at most 1,332 torus rows (d = 2, band 3) and 2 seeds.
# The one 3-torus inside the box that the row budget alone keeps from
# taking gigabytes (band 0, 15,000 rows) is left to the bad-argv table.
ARGV = st.one_of(
    _options("constants", {"--gamma": FLOATS, "--d": _ints(-1, 4)}),
    _options("k-curve", {
        "--which": st.sampled_from(("k1", "k2")), "--min": FLOATS, "--max": FLOATS,
        "--num": _ints(-1, 5), "--format": st.sampled_from(("csv", "json")),
    }),
    _options("thresholds", {
        "--tol": st.sampled_from(("0", "-1", "1e-300", "1e-3", "0.01", "0.5", "1e300") + NON_FINITE),
    }),
    _options("verify", {
        "--kind": st.sampled_from(cli.VERIFY_KINDS), "--seed-base": _ints(0, 50),
        "--gamma": FLOATS, "--beta": FLOATS, "--delta": FLOATS, "--alpha": FLOATS,
        "--d": _ints(-1, 4), "--m-dim": _ints(-1, 3), "--band": _ints(-1, 3),
        "--scale": FLOATS, "--family-size": _ints(-1, 4), "--rhs-scale": FLOATS,
    }, required={"--seeds": _ints(-1, 2)}).filter(
        lambda argv: not {"--kind=torus", "--d=3", "--band=0"} <= set(argv)
    ),
    _options("attractor", {
        "--formula": st.sampled_from(("square", "elongated", "kolmogorov")), "--nu": FLOATS,
        "--mu": FLOATS, "--length": FLOATS, "--grad-g": FLOATS, "--aspect": FLOATS,
        "--c-lt": FLOATS, "--c-q": FLOATS,
    }),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(ARGV)
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if any(flag in FLOAT_FLAGS and value in NON_FINITE
           for flag, value in (token.split("=", 1) for token in argv[1:])):
        assert code == 2


class TestParserCache:
    def test_one_parser_gives_what_fresh_parsers_give(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma=2\nd=3\n")
        argvs = [
            ["--version"],
            ["constants", "--gamma", "1.5"],
            ["constants", "--config", str(cfg)],
            ["constants", f"--config={cfg}", "--d", "4"],
            ["verify", "--kind", "h2", "--seeds", "2"],
            ["verify", "--kind", "h1", "--seeds", "1", "--rhs-scale", "0.01"],
            ["thresholds", "--tol", "1e-4"],
            [],
            ["verify", "--kind", "nope"],
            ["constants", "--gamma", "nan"],
            ["constants", "--frobnicate", "1"],
            ["attractor", "--c-p", "1"],
            ["constants", "--config", str(tmp_path / "missing.cfg")],
        ]
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli._build_parser.cache_clear()
        cached = [run(capsys, *argv) for argv in argvs]
        again = [run(capsys, *argv) for argv in argvs]
        assert cli._build_parser.cache_info().misses == 1
        assert cached == fresh and again == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 1, 0, 2, 2, 2, 2, 2, 2]
        assert fresh[0][1] == f"ltbounds {__version__}\n"


class TestAttractor:
    def test_square(self, capsys):
        code, out, _ = run(capsys, "attractor", "--formula", "square")
        doc = json.loads(out)
        assert code == 0
        assert doc["value"] == pytest.approx(3.0 / 16.0, rel=1e-12)
        assert doc["constants"]["c_lt"] == 1.5

    def test_elongated(self, capsys):
        code, out, _ = run(capsys, "attractor", "--formula", "elongated")
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(math.pi / 12.0 + math.sqrt(math.pi), rel=1e-12)

    def test_elongated_validity_guard(self, capsys):
        code, _, err = run(capsys, "attractor", "--formula", "elongated", "--nu", "9")
        assert code == 2
        assert "does not apply" in err

    def test_square_needs_the_square_torus(self, capsys):
        code, out, err = run(capsys, "attractor", "--formula", "square", "--aspect", "0.25")
        assert (code, out) == (2, "")
        assert err == "error: aspect=0.25 is not 1; the square-torus estimate does not apply\n"

    def test_kolmogorov(self, capsys):
        code, out, _ = run(capsys, "attractor", "--formula", "kolmogorov", "--grad-g", "2")
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(4.0, rel=1e-12)

    def test_invalid_params(self, capsys):
        code, _, _ = run(capsys, "attractor", "--nu", "0")
        assert code == 2

    def test_c_p_is_fixed(self, capsys):
        code, out, _ = run(capsys, "attractor", "--formula", "elongated")
        assert json.loads(out)["constants"]["c_p"] == math.pi / 6.0
        code, out, err = run(capsys, "attractor", "--formula", "elongated", "--c-p", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and "--c-p" in err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ngamma=2\nd=3\n")
        code, out, _ = run(capsys, "constants", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["gamma"] == 2.0 and doc["config"]["d"] == 3

        code, out, _ = run(capsys, "constants", "--config", str(cfg), "--d", "4")
        doc = json.loads(out)
        assert doc["config"]["d"] == 4  # explicit flag beats config
        assert doc["config"]["gamma"] == 2.0

        spaced = run(capsys, "constants", "--config", str(cfg))
        assert run(capsys, "constants", f"--config={cfg}") == spaced

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "constants", "--config", "/nonexistent/cfg")
        assert code == 2
        code, _, err = run(capsys, "constants", "--config=/nonexistent/cfg")
        assert code == 2

    def test_config_without_a_path_is_an_argparse_error(self, capsys):
        code, out, err = run(capsys, "constants", "--config")
        assert (code, out) == (2, "")
        assert "--config: expected one argument" in err

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma 2\n")
        code, _, _ = run(capsys, "constants", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("spelling", ["--conf", "--con="])
    def test_abbreviated_config_flag_reads_the_file(self, capsys, tmp_path, spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma=2\nd=3\n")
        argv = [spelling + str(cfg)] if spelling.endswith("=") else [spelling, str(cfg)]
        abbreviated = run(capsys, "constants", *argv)
        assert abbreviated == run(capsys, "constants", "--config", str(cfg))
        assert json.loads(abbreviated[1])["config"]["gamma"] == 2.0

    def test_last_config_flag_wins(self, capsys, tmp_path):
        first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
        first.write_text("gamma=2\n")
        last.write_text("gamma=3\n")
        code, out, _ = run(capsys, "constants", "--config", str(first), "--config", str(last))
        assert code == 0
        assert json.loads(out)["config"]["gamma"] == 3.0

    def test_help_reads_no_config_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "constants", "--config", str(tmp_path / "missing.cfg"), "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: ltbounds constants")

    @pytest.mark.parametrize("argv, keys", [
        (["constants"], {"gamma", "d"}),
        (["thresholds"], {"tol"}),
        (["k-curve", "-n", "3", "--format", "json"], {"which", "min", "max", "num"}),
        (["verify", "--kind", "trace1", "--seeds", "1", "--seed-base", "3"],
         {"kind", "seeds", "seed_base", "gamma", "beta", "delta", "alpha", "d", "m_dim",
          "band", "scale", "family_size", "rhs_scale"}),
        (["attractor"], {"formula", "nu", "mu", "length", "grad_g", "aspect"}),
    ], ids=["constants", "thresholds", "k-curve", "verify", "attractor"])
    def test_config_echo_keys(self, capsys, argv, keys):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        config = json.loads(out)["config"]
        assert set(config) == keys | {"seed"}
        assert config["seed"] == (3 if argv[0] == "verify" else None)


class TestOutputFile:
    @pytest.mark.parametrize("argv, target", [
        (["constants"], "missing/x.json"),
        (["verify", "--kind", "h2", "--seeds", "1"], "."),
    ], ids=["missing-directory", "a-directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv, target):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
