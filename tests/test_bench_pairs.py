"""tools/bench_pairs.py: the summary statistics, the --pairs parsing and the run order."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"items_per_s": "higher", "batch_s_p50": "lower"}


def _run(items, batch, correct=True):
    return {"correct": correct, "metrics": {"items_per_s": {"value": items},
                                            "batch_s_p50": {"value": batch}}}


def _runs(parent, change):
    return {"parent": [_run(*r) for r in parent], "change": [_run(*r) for r in change]}


class TestSummary:
    def test_medians_quartiles_and_wins(self):
        runs = _runs(
            [(1, 10), (2, 10), (3, 10), (4, 10), (5, 10)],
            [(2, 9), (2, 10), (4, 11), (3, 9), (6, 10)],
        )
        out = bench_pairs.summary(runs, BETTER)
        items = out["items_per_s"]
        assert items["better"] == "higher" and items["pairs"] == 5
        # exclusive quartiles: (n + 1) p-th order statistic, interpolated
        assert items["parent"] == {"median": 3, "q1": 1.5, "q3": 4.5}
        assert items["change"] == {"median": 3, "q1": 2.0, "q3": 5.0}
        assert items["change_wins"] == 3  # the tie at 2 counts for neither side
        batch = out["batch_s_p50"]
        assert batch["better"] == "lower"
        assert batch["change_wins"] == 2  # lower wins; two ties
        assert batch["parent"] == {"median": 10, "q1": 10, "q3": 10}

    def test_pairs_with_an_incorrect_side_are_skipped(self):
        runs = _runs([(1, 10), (1, 10), (1, 10)], [(2, 9), (2, 9), (2, 9)])
        runs["change"][1]["correct"] = False
        del runs["parent"][2]["correct"]
        runs["parent"][1]["metrics"]["items_per_s"]["value"] = 100
        out = bench_pairs.summary(runs, BETTER)
        assert out["items_per_s"]["pairs"] == 1
        assert out["items_per_s"]["change_wins"] == 1
        # one pair: the quartiles collapse onto the value
        assert out["items_per_s"]["parent"] == {"median": 1, "q1": 1, "q3": 1}

    def test_no_correct_pair_gives_no_rows(self):
        runs = _runs([(1, 10)], [(2, 9)])
        runs["parent"][0]["correct"] = False
        assert bench_pairs.summary(runs, BETTER) == {}


class TestSignTest:
    @pytest.mark.parametrize("wins, losses, p", [(9, 1, 0.0215), (10, 0, 0.00195), (5, 0, 0.0625)])
    def test_pinned_values(self, wins, losses, p):
        assert bench_pairs.sign_p(wins, losses) == pytest.approx(p, abs=5e-5)
        assert bench_pairs.sign_p(losses, wins) == bench_pairs.sign_p(wins, losses)

    def test_exact_values_and_bounds(self):
        assert bench_pairs.sign_p(9, 1) == 22 / 1024
        assert bench_pairs.sign_p(10, 0) == 2 / 1024
        assert bench_pairs.sign_p(0, 0) == 1.0
        assert bench_pairs.sign_p(5, 5) == 1.0

    def test_summary_drops_ties(self):
        # nine wins, one tie: p over the nine untied pairs, 2 / 2^9
        runs = _runs([(1, 10)] * 10, [(2, 10)] * 9 + [(1, 10)])
        out = bench_pairs.summary(runs, BETTER)
        assert out["items_per_s"]["change_wins"] == 9
        assert out["items_per_s"]["sign_p"] == 2 / 512
        assert out["batch_s_p50"]["sign_p"] == 1.0  # every pair tied


class TestWorkloadCounts:
    def test_counts(self):
        got = bench_pairs.workload_counts(["line1d=10", "torus-weak=5", "line1d=3"])
        assert got == {"line1d": 3, "torus-weak": 5}
        assert bench_pairs.workload_counts([]) == {}

    @pytest.mark.parametrize("spec", ["line1d", "line1d=", "=4", "line1d=x", "line1d=-1"])
    def test_malformed_spec_raises(self, spec):
        with pytest.raises(ValueError, match="WORKLOAD=N"):
            bench_pairs.workload_counts([spec])

    @pytest.mark.parametrize("flag", ["--pairs", "--traced"])
    def test_malformed_flag_is_a_usage_error(self, capsys, tmp_path, flag):
        out = tmp_path / "bench.json"
        argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(out),
                flag, "line1d"]
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "expected WORKLOAD=N" in err
        assert not out.exists()


class TestRunOrder:
    def test_each_bench_run_follows_a_compile_of_its_checkout(self, monkeypatch, tmp_path):
        calls = []

        def fake_run(argv, cwd=None, **kwargs):
            calls.append((list(argv), pathlib.Path(cwd)))
            record = {"correct": True, "metrics": {"items_per_s": {"value": 1.0}}}
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(record) + "\n", stderr="")

        sides = {}
        for side in ("parent", "change"):
            sides[side] = tmp_path / side
            sides[side].mkdir()
        spec = {"end_to_end": [{"name": "items_per_s", "better": "higher"}], "per_layer": []}
        (sides["change"] / "BENCHMARK.json").write_text(json.dumps(spec))
        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        out = tmp_path / "bench.json"
        argv = ["--parent", str(sides["parent"]), "--change", str(sides["change"]), "--out", str(out),
                "--pairs", "line1d=2", "--traced", "torus-weak=1"]
        assert bench_pairs.main(argv) == 0

        benches = [k for k, (argv, _) in enumerate(calls) if "bench/run.py" in argv]
        assert len(benches) == 6 and len(calls) == 12
        for k in benches:
            compile_argv, compile_cwd = calls[k - 1]
            assert compile_argv[1:] == ["-m", "compileall", "-q", "src", "bench"]
            assert compile_cwd == calls[k][1]
        # pair order alternates: parent first in even pairs
        roots = [calls[k][1] for k in benches]
        assert roots[:4] == [sides["parent"], sides["change"], sides["change"], sides["parent"]]
        assert json.loads(out.read_text())["line1d"]["summary"]["items_per_s"]["pairs"] == 2
