"""One workload's closed loop, run in its own child process by run.py.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S [--traced]

Commands go through ltbounds.cli.main(argv) in this process, one at a time,
with the program's default thread settings.  Every output is checked.  The
last stdout line is a JSON object with the command wall times, item counts,
failures, peak memory and, with --traced, the per-layer metrics.

`python3 bench/worker.py --record-reference` rewrites bench/reference.json
from the current code; do that only for a change meant to alter results.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(ROOT / "src"))

from spans import SpanRecorder, covered, patched, self_times  # noqa: E402

THREAD_VARS = ("LT_TORUS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_TORUS = ["verify", "--kind", "torus", "--d", "2", "--band", "2", "--seeds", "4"]

# Each workload repeats this rotation of commands.  Verify commands get a
# --seed-base drawn from the benchmark seed; at the CLI's default seed-base
# (0) the rotation is the reference round.
WORKLOADS = {
    # the hot path: 1,056 modes, 5-13% of eigenvalues negative
    "torus-weak": [
        _TORUS + ["--scale", "1", "--alpha", "1"],
        _TORUS + ["--scale", "1", "--alpha", "0.5"],
    ],
    # same dense cost, 41-48% negative: where a partial-spectrum solver loses.
    # Two commands a round, as on torus-weak, keep a 30-second run below the
    # 11 rounds at which the tail percentile would jump from max to min.
    "torus-strong": [_TORUS + ["--scale", "3", "--alpha", "1"]] * 2,
    # small 1D items: K-solve, Python assembly and CLI overhead dominate
    "line1d": [["verify", "--kind", k, "--seeds", "12"] for k in ("h1", "h2", "trace1", "trace2")],
    # interp only, every K-solve at a distinct beta.  Not in BENCHMARK.json:
    # its round medians swing by more than the largest allowed bound on a
    # shared machine (see README.md); run it by hand.
    "constants": [["thresholds"], ["k-curve", "--which", "k1"], ["k-curve", "--which", "k2"]],
}

# torus geometries whose auxiliary masses the workload's first command solves
GEOMETRIES = {"torus-weak": [(1.0, 1.0), (0.5, 1.0)], "torus-strong": [(1.0, 1.0)]}

# acceptance criterion c01
BETA_STAR_WINDOW = (0.0440, 0.0460)
BETA_STAR_STAR_WINDOW = (0.8380, 0.8400)
REL_TOL = 1e-9


def _matrix_attrs(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    return {"n": int(matrix.shape[0]), "negatives": len(result.negatives)}


# 'module:attribute' -> (span name, annotation hook)
TARGETS = {
    "ltbounds.interp:k1": ("interp.k1", None),
    "ltbounds.interp:k2": ("interp.k2", None),
    "ltbounds.interp:beta_star": ("interp.beta_star", None),
    "ltbounds.interp:beta_star_star": ("interp.beta_star_star", None),
    "ltbounds.interp:export_curve": ("interp.export_curve", None),
    "ltbounds.spectral1d:random_psd_potential": ("spectral1d.random_psd_potential", None),
    "ltbounds.spectral1d:assemble_h1": ("spectral1d.assemble_h1", None),
    "ltbounds.spectral1d:assemble_h2": ("spectral1d.assemble_h2", None),
    "ltbounds.spectral1d:negative_spectrum": ("spectral1d.negative_spectrum", _matrix_attrs),
    "ltbounds.spectral1d:trace_power_integral": ("spectral1d.trace_power_integral", None),
    "ltbounds.spectral1d:verify_bound_h1": ("spectral1d.verify_bound_h1", None),
    "ltbounds.spectral1d:verify_bound_h2": ("spectral1d.verify_bound_h2", None),
    "ltbounds.torus:ScalarPotentialD.random": ("torus.ScalarPotentialD.random", None),
    "ltbounds.torus:choose_betas": ("torus.choose_betas", None),
    "ltbounds.torus:assemble_torus_operator": ("torus.assemble_torus_operator", None),
    # torus binds its own name for the shared eigensolver, so the two
    # attributes are wrapped apart and torus and 1D eigensolves attribute apart
    "ltbounds.torus:negative_spectrum": ("torus.negative_spectrum", _matrix_attrs),
    "ltbounds.torus:potential_power_integral": ("torus.potential_power_integral", None),
    "ltbounds.torus:verify_bound_torus": ("torus.verify_bound_torus", None),
    "ltbounds.families:random_orthonormal_family": ("families.random_orthonormal_family", None),
    "ltbounds.families:density_and_kinetic": ("families.density_and_kinetic", None),
    "ltbounds.families:verify_trace1": ("families.verify_trace1", None),
    "ltbounds.families:verify_trace2": ("families.verify_trace2", None),
    "ltbounds.cli:main": ("cli.main", None),
}


class Outcome:
    """One CLI command: argv, exit code, captured stdout, wall time, problems."""

    def __init__(self, argv, code, out, wall, error):
        self.argv = argv
        self.code = code
        self.out = out
        self.wall = wall
        self.problems = [error] if error else []
        self.items = 0


def run_command(argv) -> Outcome:
    from ltbounds import cli

    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        error = None
    except Exception as exc:  # a raising command is a failed command, not a crash
        code, error = None, f"raised {exc!r}"
    wall = time.perf_counter() - start
    return Outcome(list(argv), code, buf.getvalue(), wall, error)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _parse_curve(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["beta", "K", "argmax_lambda"]:
        raise ValueError("k-curve output lacks its header")
    return [[float(b), float(k), None if a == "inf" else float(a)] for b, k, a in rows[1:]]


def _reference_record(argv, out: str):
    """The numbers of a command's output that the reference pins."""
    if argv[0] == "verify":
        keys = ("seed", "lhs", "rhs", "negative_count")
        return [{k: r[k] for k in keys if k in r} for r in json.loads(out)["reports"]]
    if argv[0] == "k-curve":
        return _parse_curve(out)
    doc = json.loads(out)
    return {"beta_star": doc["beta_star"], "beta_star_star": doc["beta_star_star"]}


def _matches(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _matches(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _matches(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float) and isinstance(got, (int, float)):
        return _close(got, want)
    return got == want


def check(outcome: Outcome, reference) -> None:
    """Append to outcome.problems whatever is wrong with the output; count items."""
    argv = outcome.argv
    if outcome.problems:
        return
    if outcome.code != 0:
        outcome.problems.append(f"exit code {outcome.code}")
        return
    try:
        if argv[0] == "verify":
            doc = json.loads(outcome.out)
            reports = doc["reports"]
            if doc["all_pass"] is not True:
                outcome.problems.append("all_pass is not true")
            if any(not r["lhs"] <= r["rhs"] for r in reports):
                outcome.problems.append("a report has lhs > rhs")
            base = doc["config"]["seed_base"]
            want_seeds = list(range(base, base + doc["config"]["seeds"]))
            if [r["seed"] for r in reports] != want_seeds:
                outcome.problems.append("reports are not in seed order")
            items = len(reports)
        elif argv[0] == "k-curve":
            items = len(_parse_curve(outcome.out))
        else:
            doc = json.loads(outcome.out)
            if not BETA_STAR_WINDOW[0] <= doc["beta_star"] <= BETA_STAR_WINDOW[1]:
                outcome.problems.append(f"beta_star {doc['beta_star']} outside the c01 window")
            if not BETA_STAR_STAR_WINDOW[0] <= doc["beta_star_star"] <= BETA_STAR_STAR_WINDOW[1]:
                outcome.problems.append(
                    f"beta_star_star {doc['beta_star_star']} outside the c01 window"
                )
            items = 2
        if reference is not None and not _matches(_reference_record(argv, outcome.out), reference):
            outcome.problems.append("output differs from bench/reference.json")
    except (ValueError, KeyError, TypeError) as exc:
        outcome.problems.append(f"unreadable output: {exc!r}")
        return
    if not outcome.problems:
        outcome.items = items


def seeded_rounds(workload: str, seed: int):
    """Endless rounds of the workload's rotation, --seed-base drawn from the seed."""
    rng = random.Random(seed)
    while True:
        yield [
            argv + ["--seed-base", str(rng.randrange(1, 10**6))] if argv[0] == "verify" else argv
            for argv in WORKLOADS[workload]
        ]


def warm_up(workload: str) -> None:
    """What setup_probe.py times: parser built, lazy torus caches filled."""
    from ltbounds import cli, torus

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--version"])
    for alphas in GEOMETRIES.get(workload, []):
        torus.choose_betas(torus.TorusGeometry(alphas))


def run_round(commands, ref: dict) -> list:
    outcomes = []
    for argv in commands:
        outcome = run_command(argv)
        check(outcome, ref.get(" ".join(argv)))
        outcomes.append(outcome)
    return outcomes


def run_workload(workload: str, seed: int, seconds: float, references: dict) -> dict:
    """Closed loop of one workload for about `seconds`, every output checked.

    A round is one pass over the workload's rotation.  The loop opens with
    the reference round (the rotation at the CLI's default seed), runs
    seeded rounds while time remains, and closes by repeating the reference
    round, whose documents must come out byte-identical.  Commands that
    always run at their defaults (thresholds, k-curve) are checked against
    the reference every time.
    """
    ref = references[workload]
    rotation = WORKLOADS[workload]
    warm_up(workload)
    loop_start = time.perf_counter()
    rounds = [run_round(rotation, ref)]
    seeded = seeded_rounds(workload, seed)
    # stop one mean round early: the closing round is still to come
    while (time.perf_counter() - loop_start) * (1 + 1 / len(rounds)) < seconds:
        rounds.append(run_round(next(seeded), ref))
    closing = run_round(rotation, ref)
    for first, again in zip(rounds[0], closing):
        if (again.code, again.out) != (first.code, first.out):
            again.problems.append("a repeated command gave a different document")
    rounds.append(closing)
    loop_end = time.perf_counter()

    outcomes = [o for r in rounds for o in r]
    return {
        "round_walls": [sum(o.wall for o in r) for r in rounds],
        "items": sum(o.items for o in outcomes),
        "items_per_s": sum(o.items for o in outcomes) / sum(o.wall for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "problems": sorted({p for o in outcomes for p in o.problems}),
        "loop": [loop_start, loop_end],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, loop, items: int, main_thread: int) -> dict:
    """Per-layer numbers from the spans of one traced run.

    Self times are medians per call (one call per item); interp counts and
    times are totals per item.  Spans outside the timed loop count only for
    interp.threshold_s, since the thresholds are solved once, in set-up.
    """
    own = self_times(spans)
    lo, hi = loop
    in_loop = [s for s in spans if lo <= s.start and s.end <= hi]

    def named(*names):
        return [s for s in in_loop if s.name in names]

    def self_median(*names):
        return _median([own[s.span_id] for s in named(*names)])

    torus_eig = named("torus.negative_spectrum")
    n_torus = _median([s.attrs["n"] for s in torus_eig])
    eig_s = self_median("torus.negative_spectrum")
    gflop = 16.0 / 3.0 * n_torus**3 / 1e9
    verify = named("torus.verify_bound_torus")
    verify_total = sum(s.duration for s in verify)
    k_spans = named("interp.k1", "interp.k2")

    concurrency, outside = [], []
    for cmd in named("cli.main"):
        work = [
            s
            for s in in_loop
            if s.name != "cli.main"
            and cmd.start <= s.start <= cmd.end
            and (s.parent == cmd.span_id or (s.parent is None and s.thread != main_thread))
        ]
        concurrency.append(sum(s.duration for s in work) / cmd.duration)
        outside.append(cmd.duration - covered([(s.start, s.end) for s in work], cmd.start, cmd.end))

    return {
        "torus.eigensolve_s": eig_s,
        "torus.eigensolve_gflop": gflop,
        "torus.eigensolve_gflops": gflop / eig_s if eig_s else 0.0,
        "torus.assembly_s": self_median("torus.assemble_torus_operator"),
        "torus.matrix_n": n_torus,
        "torus.matrix_mb": 16.0 * n_torus**2 / 1e6,
        "torus.negative_share": _median([s.attrs["negatives"] / s.attrs["n"] for s in torus_eig]),
        "torus.potential_s": self_median("torus.ScalarPotentialD.random"),
        "torus.quadrature_s": self_median("torus.potential_power_integral"),
        "torus.verify_s": _median([s.duration for s in verify]),
        "torus.eigensolve_share": (
            sum(own[s.span_id] for s in torus_eig) / verify_total if verify_total else 0.0
        ),
        "torus.accounted_share": (
            1.0 - sum(own[s.span_id] for s in verify) / verify_total if verify_total else 0.0
        ),
        "interp.k_calls": len(k_spans) / items,
        "interp.k_s": sum(own[s.span_id] for s in k_spans) / items,
        "interp.threshold_s": _median(
            [s.duration for s in spans if s.name in ("interp.beta_star", "interp.beta_star_star")]
        ),
        "spectral1d.potential_s": self_median("spectral1d.random_psd_potential"),
        "spectral1d.assembly_s": self_median("spectral1d.assemble_h1", "spectral1d.assemble_h2"),
        "spectral1d.eigensolve_s": self_median("spectral1d.negative_spectrum"),
        "spectral1d.quadrature_s": self_median("spectral1d.trace_power_integral"),
        "spectral1d.matrix_n": _median([s.attrs["n"] for s in named("spectral1d.negative_spectrum")]),
        "families.family_s": self_median("families.random_orthonormal_family"),
        "families.density_s": self_median("families.density_and_kinetic"),
        "cli.concurrency": _median(concurrency),
        "cli.outside_verify_s": _median(outside),
    }


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def record_reference() -> None:
    references = {}
    for workload, rotation in WORKLOADS.items():
        references[workload] = {}
        for argv in rotation:
            outcome = run_command(argv)
            check(outcome, None)
            if outcome.problems:
                raise SystemExit(f"{' '.join(argv)}: {outcome.problems}")
            references[workload][" ".join(argv)] = _reference_record(argv, outcome.out)
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    references = json.loads(REFERENCE.read_text())
    if not args.traced:
        result = run_workload(args.workload, args.seed, args.seconds, references)
    else:
        recorder = SpanRecorder()
        with patched(recorder, TARGETS) as missing:
            result = run_workload(args.workload, args.seed, args.seconds, references)
        result["layers"] = layer_metrics(
            recorder.spans, result["loop"], max(result["items"], 1), threading.get_ident()
        )
        result["missing_targets"] = missing
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
