"""Run one list of CLI commands on this checkout and on a git revision,
and compare their outputs byte for byte.

    python3 tools/same_output.py REV [--expect-moved NAME ...]

COMMANDS holds README.md's `ltbounds` lines and every command of
bench/reference.json, both read from this checkout, then every verify kind
at its defaults, torus batches, 1D batches that span two stacks and torus
usage errors.  REV's `src` is exported with `git archive` (local git only)
into a temporary directory, which is removed on exit.  Each named command of COMMANDS runs as
`python -m ltbounds ARGS` with PYTHONPATH set to one tree's `src`, in its own
empty temporary working directory.  A command's output is its exit code,
stdout, stderr and every file it leaves in that directory (`--out`).

The tool prints one line per command and exits 1 when an output differs and
the command's name is not given to --expect-moved.  For each differing JSON
or CSV document it also prints the fields only one side has (`+ FIELD` added,
`- FIELD` removed) and the largest relative change of each numeric field,
lists flattened to `[]`.  On a pull request, CI passes one --expect-moved
per line that the pull request adds to tools/expected_moves.txt.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TORUS = "verify --kind torus"


def _readme_commands() -> list:
    """README.md's `ltbounds` lines, with shell comments stripped, in file order."""
    lines = re.findall(r"^ltbounds (.*)$", (ROOT / "README.md").read_text(), flags=re.MULTILINE)
    return [(f"readme-{i}", shlex.join(shlex.split(line, comments=True))) for i, line in enumerate(lines, 1)]


def _reference_commands() -> list:
    """Every command key of bench/reference.json, per workload in file order."""
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    return [(f"bench-{workload}-{i}", command)
            for workload, commands in reference.items() for i, command in enumerate(commands, 1)]


# (name, arguments after `ltbounds`)
COMMANDS = (
    *_readme_commands(),
    *_reference_commands(),
    # every kind at the CLI's defaults, and torus batches
    *((f"default-{kind}", f"verify --kind {kind}") for kind in ("h1", "h2", "torus", "trace1", "trace2")),
    *((f"torus-{n}-seeds", f"{_TORUS} --seeds {n}") for n in (1, 3, 20)),
    # 20 seeds cross the CLI's stack of 16 for every 1D kind; h2 at m = 1 takes the real cos/sin form
    *((f"{kind}-20-seeds", f"verify --kind {kind} --seeds 20") for kind in ("h1", "trace1", "trace2")),
    ("h2-m-dim-1-20-seeds", "verify --kind h2 --m-dim 1 --seeds 20"),
    # usage errors: exit 2 with one stderr line
    ("usage-d-4", f"{_TORUS} --d 4"),
    ("usage-d-7", f"{_TORUS} --d 7"),
    ("usage-gamma-0.5", f"{_TORUS} --gamma 0.5"),
    ("usage-band-minus-1", f"{_TORUS} --band -1"),
    ("usage-alpha-2", f"{_TORUS} --alpha 2"),
    ("usage-d-3-band-0", f"{_TORUS} --d 3 --band 0 --scale 0.3"),
)


def export(rev: str, dest: Path) -> None:
    """Write REV's `src` under dest, from this repository's git."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run(tree: Path, args: str) -> dict:
    """One command's output on a tree: {"exit", "stdout", "stderr", "file NAME"...} as bytes."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory(prefix="same-output-") as cwd:
        proc = subprocess.run([sys.executable, "-m", "ltbounds", *shlex.split(args)],
                              cwd=cwd, env=env, capture_output=True)
        out = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}
        for path in sorted(Path(cwd).iterdir()):
            out[f"file {path.name}"] = path.read_bytes()
    return out


def _leaves(text: bytes) -> dict:
    """Leaf values of a JSON or CSV document, as {field: [values in order]}, lists flattened to `[]`;
    {} for other text."""
    fields = {}
    try:
        doc = json.loads(text)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text.decode(errors="replace"))))
        if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
            return {}
        doc = {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}

    def walk(node, field):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{field}.{key}" if field else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{field}[]")
        else:
            fields.setdefault(field, []).append(node)

    walk(doc, "")
    return fields


def _numbers(text: bytes) -> dict:
    """The numeric leaves of _leaves (booleans, nulls and other strings skipped); {} for other text."""
    fields = {}
    for field, values in _leaves(text).items():
        for value in values:
            try:
                number = None if isinstance(value, bool) else float(value)
            except (TypeError, ValueError):
                number = None
            if number is not None:
                fields.setdefault(field, []).append(number)
    return fields


def field_moves(old: bytes, new: bytes) -> list:
    """The leaf fields that only one of two documents has: `+ FIELD` added, then `- FIELD` removed."""
    before, after = _leaves(old).keys(), _leaves(new).keys()
    return [f"+ {field}" for field in sorted(after - before)] + [f"- {field}" for field in sorted(before - after)]


def relative_changes(old: bytes, new: bytes) -> dict:
    """The largest relative change of each numeric field present in both documents."""
    changes = {}
    before, after = _numbers(old), _numbers(new)
    for field in before.keys() & after.keys():
        pairs = zip(before[field], after[field])
        changes[field] = max((abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0 for a, b in pairs), default=0.0)
    return changes


def compare(parent: dict, change: dict, expect_moved) -> int:
    """Print one line per command of the two output sets; 1 if a difference is not expected."""
    unexpected = 0
    for name in parent:
        moved = [key for key in parent[name].keys() | change[name].keys()
                 if parent[name].get(key) != change[name].get(key)]
        if not moved:
            print(f"{name}: same")
            continue
        expected = name in expect_moved
        unexpected += not expected
        print(f"{name}: differs in {', '.join(sorted(moved))}{' (expected)' if expected else ''}")
        for key in sorted(moved):
            old, new = parent[name].get(key, b""), change[name].get(key, b"")
            for move in field_moves(old, new):
                print(f"  {key} {move}")
            for field, rel in sorted(relative_changes(old, new).items()):
                if rel:
                    print(f"  {key} {field}: {rel:.3g}")
    print(f"{len(parent)} commands, {unexpected} differ unexpectedly")
    return 1 if unexpected else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the git revision to compare this checkout against")
    parser.add_argument("--expect-moved", action="append", default=[], metavar="NAME",
                        help="a command whose output may differ (repeatable)")
    args = parser.parse_args(argv)
    names = [name for name, _ in COMMANDS]
    for name in args.expect_moved:
        if name not in names:
            parser.error(f"--expect-moved {name}: no such command")
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="same-output-rev-") as tmp:
        export(args.rev, Path(tmp))
        parent = {name: run(Path(tmp), cmd) for name, cmd in COMMANDS}
    change = {name: run(ROOT, cmd) for name, cmd in COMMANDS}
    code = compare(parent, change, args.expect_moved)
    print(f"wall time {time.perf_counter() - t0:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
