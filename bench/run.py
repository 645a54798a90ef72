"""Benchmark of the ltbounds verifier: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  --trace 0 measures the end-to-end
metrics: set-up time in fresh interpreters, then one child process running
the workload's closed loop for S seconds.  --trace 1 gives the per-layer
metrics from three children of S/3 seconds each: untraced, single-threaded
and traced.  Every child runs with the thread variables unset (the
single-threaded one sets two of them).  The last stdout line is the result
object; the exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

from spans import tail_percentile  # noqa: E402
from worker import GEOMETRIES, THREAD_VARS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
SINGLE_THREAD = {"LT_TORUS_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}



class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra or {})
    return env


def run_child(args: list, env: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{args[0]} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{args[0]} printed no result:\n{proc.stdout[-2000:]}") from exc


def run_workload(workload: str, seed: int, seconds: float, env: dict, traced=False) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds)]
    return run_child(args + (["--traced"] if traced else []), env)


def setup_time(workload: str, env: dict) -> float:
    geometries = [",".join(map(repr, g)) for g in GEOMETRIES.get(workload, [])]
    return run_child([str(HERE / "setup_probe.py"), *geometries], env)["setup_s"]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def with_units(values: dict, kind: str) -> dict:
    """Attach the units BENCHMARK.json declares; the metric sets must agree."""
    declared = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}
    if values.keys() != declared.keys():
        raise BenchError(f"{kind} metrics {sorted(values)} differ from BENCHMARK.json")
    return {k: {"value": v, "unit": declared[k]} for k, v in values.items()}


def end_to_end(result: dict, setups: list) -> tuple[dict, list]:
    walls = result["round_walls"]
    tail, pct, beyond = tail_percentile(walls)
    values = {
        "items_per_s": result["items_per_s"],
        "batch_s_p50": statistics.median(walls),
        "batch_s_tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = with_units(values, "end_to_end")
    lines = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines[2] += f"  (p{pct:.1f} of {len(walls)} rounds, {beyond} beyond it)"
    lines[3] += f"  (median of {len(setups)} fresh interpreters)"
    lines.append(f"failed_share {result['failed'] / result['attempted']:.6g} ratio"
                 f"  ({result['failed']} of {result['attempted']} commands)")
    return metrics, lines


def per_layer(plain: dict, single: dict, traced: dict) -> tuple[dict, list]:
    values = dict(traced["layers"])
    # a child whose commands all failed completed no items; its checks fail the run
    values["cli.parallel_speedup"] = (
        plain["items_per_s"] / single["items_per_s"] if single["items_per_s"] else 0.0
    )
    values["trace_overhead"] = (
        1.0 - traced["items_per_s"] / plain["items_per_s"] if plain["items_per_s"] else 0.0
    )
    metrics = with_units(values, "per_layer")
    lines = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    if traced["missing_targets"]:
        lines.append(f"not traced (missing): {', '.join(traced['missing_targets'])}")
    return metrics, lines


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list, list]:
    """(metrics, human-readable lines, child results) for one invocation."""
    env = child_env()
    if not trace:
        setups = [setup_time(workload, env) for _ in range(SETUP_REPEATS)]
        result = run_workload(workload, seed, seconds, env)
        metrics, lines = end_to_end(result, setups)
        return metrics, lines, [("default", result)]
    share = seconds / 3.0
    plain = run_workload(workload, seed, share, env)
    single = run_workload(workload, seed, share, child_env(SINGLE_THREAD))
    traced = run_workload(workload, seed, share, env, traced=True)
    metrics, lines = per_layer(plain, single, traced)
    return metrics, lines, [("default", plain), ("single-thread", single), ("traced", traced)]


def thread_env_ok(mode: str, result: dict) -> bool:
    want = SINGLE_THREAD if mode == "single-thread" else {}
    return result["env"]["thread_vars"] == {k: want.get(k) for k in THREAD_VARS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "ltbounds" / "cli.py").is_file():
        print(f"error: no ltbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, lines, children = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env_ok = all(thread_env_ok(mode, r) for mode, r in children)
    attempted = sum(r["attempted"] for _, r in children)
    failed = sum(r["failed"] for _, r in children)
    problems = sorted({p for _, r in children for p in r["problems"]})
    correct = failed == 0 and env_ok
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        **{k: v for k, v in children[0][1]["env"].items() if k != "thread_vars"},
        "children": {mode: r["env"]["thread_vars"] for mode, r in children},
    }
    for line in lines:
        print(line)
    for problem in problems:
        print(f"check failed: {problem}")
    if not env_ok:
        print("check failed: a child ran with unexpected thread variables")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
