"""Span recording around the package's public functions, and the arithmetic
the benchmark builds on it: self times, unions of intervals, tail percentiles.

Spans are recorded from outside the program: `patched` swaps module (or class)
attributes for timing wrappers and puts the originals back on exit.  Each
thread keeps its own parent stack, so spans opened on the CLI's worker threads
nest under their own callers and never under a span of another thread.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; `wrap` makes a recording wrapper for one callable."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn, annotate=None):
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = annotate(args, kwargs, result) if annotate else {}
            span = Span(name, start, end, span_id, parent, threading.get_ident(), attrs)
            with self._lock:
                self.spans.append(span)
            return result

        return wrapper


def resolve(target: str):
    """'pkg.module:Attr.path' -> (owner object, attribute name)."""
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(recorder: SpanRecorder, targets: dict):
    """Wrap every existing target for the duration of the block.

    targets maps 'pkg.module:attr' to (span name, annotate or None).  Targets
    the package no longer has are skipped and yielded as a list, so the
    benchmark keeps running when a later version renames a function.
    """
    saved = []
    missing = []
    try:
        for target, (name, annotate) in targets.items():
            try:
                owner, attr = resolve(target)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            if attr not in vars(owner):
                missing.append(target)
                continue
            raw = vars(owner)[attr]
            wrapped = recorder.wrap(name, getattr(owner, attr), annotate)
            if isinstance(owner, type):
                # a bound classmethod or a function reached through the class:
                # keep it unbound so instances do not pass themselves
                wrapped = staticmethod(wrapped)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield missing
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def merge_intervals(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint union of (start, end) pairs; empty pairs dropped."""
    merged: list[list[float]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    clipped = [(max(a, lo), min(b, hi)) for a, b in intervals]
    return sum(b - a for a, b in merge_intervals(clipped))


def self_times(spans) -> dict[int, float]:
    """span_id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile with at least `beyond` samples strictly above it.

    Returns (value, percentile, number of samples above it).  With too few
    samples for any such percentile the maximum is returned as percentile 100
    with the true (smaller) count above it, so the caller can report it.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    for i in range(n - 1, -1, -1):
        above = sum(1 for x in xs if x > xs[i])
        if above >= beyond:
            return xs[i], 100.0 * (i + 1) / n, above
    return xs[-1], 100.0, 0
