"""Alternating benchmark pairs of two source checkouts, as one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        --pairs torus-weak=10 --pairs torus-strong=5 --pairs line1d=5 \
        [--traced torus-weak=1]

Pair i of a workload runs
`python3 bench/run.py --workload W --seed S --seconds 30 --trace 0` once in
each checkout, parent first when i is even and change first when i is odd,
both with seed S = 200 + i.  Each run follows a byte-compile of its
checkout's `src` and `bench`, so no `setup_s` includes compiling a file,
even one edited while the pairs run, under PYTHONDONTWRITEBYTECODE=1 too.
The file keeps each run's exit code and the `env` and result records that
run.py prints last, and per metric the median and quartiles of each side,
the number of pairs the change won (ties count for neither) and the exact
two-sided sign-test p-value over the pairs that are not tied.  `--traced` adds pairs run with --trace 1, whose
per-layer metrics are kept the same way.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 30
SEED_BASE = 200


def run(root: Path, workload: str, seed: int, trace: int) -> dict:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=root, check=True)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    records = [json.loads(line) for line in lines[-2:] if line.startswith("{")]
    result = {"exit": proc.returncode, "seed": seed}
    for record in records:
        result.update(record)
    print(f"{workload} trace={trace} seed={seed} {root}: exit {proc.returncode}", flush=True)
    return result


def sign_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of wins against losses (ties dropped)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def summary(runs: dict, better: dict) -> dict:
    """Median, quartiles, change wins and sign-test p per metric, over pairs
    with both sides correct."""
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if p.get("correct") and c.get("correct")]
    out = {}
    for name in pairs[0][0]["metrics"] if pairs else []:
        values = {side: [r["metrics"][name]["value"] for r in col]
                  for side, col in zip(SIDES, zip(*pairs))}
        sign = 1.0 if better.get(name) == "higher" else -1.0
        gains = [sign * (c - p) for p, c in zip(*values.values())]
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        row = {"better": better.get(name), "pairs": len(pairs),
               "change_wins": wins, "sign_p": sign_p(wins, losses)}
        for side, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            row[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3}
        out[name] = row
    return out


def workload_counts(specs: list) -> dict:
    """{workload: pair count} from WORKLOAD=N strings; a later spec of a workload wins."""
    counts = {}
    for spec in specs:
        name, _, count = spec.partition("=")
        if not (name and count.isdigit()):
            raise ValueError(f"expected WORKLOAD=N, got {spec!r}")
        counts[name] = int(count)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD=N")
    args = parser.parse_args(argv)
    try:
        plans = ((0, workload_counts(args.pairs), "end_to_end"),
                 (1, workload_counts(args.traced), "per_layer"))
    except ValueError as exc:
        parser.error(str(exc))
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"command": f"python3 bench/run.py --workload W --seed S --seconds {SECONDS}"
                      " --trace 0|1, alternating parent and change"}
    for trace, counts, kind in plans:
        better = {m["name"]: m["better"] for m in spec[kind]}
        for workload, count in counts.items():
            runs = {side: [] for side in SIDES}
            for i in range(count):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run(roots[side], workload, SEED_BASE + i, trace))
            key = workload if trace == 0 else f"{workload} traced"
            doc[key] = {"runs": runs, "summary": summary(runs, better)}
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
