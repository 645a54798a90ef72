"""Tests of the benchmark's own arithmetic, wrappers and failure accounting."""

import json
import threading

import pytest

import run
import worker
from spans import (
    Span,
    SpanRecorder,
    covered,
    merge_intervals,
    patched,
    resolve,
    self_times,
    tail_percentile,
)


def span(name, start, end, span_id, parent=None, thread=1, **attrs):
    return Span(name, start, end, span_id, parent, thread, attrs)


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("outer", 0.0, 10.0, 1),
        span("a", 1.0, 3.0, 2, parent=1),
        span("b", 2.0, 4.0, 3, parent=1),  # overlaps a: the overlap counts once
        span("c", 6.0, 7.0, 4, parent=1),
        span("grandchild", 6.2, 6.8, 5, parent=4),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[4] == pytest.approx(1.0 - 0.6)
    assert own[5] == pytest.approx(0.6)


def test_self_time_ignores_overlapping_spans_of_other_threads():
    spans = [
        span("verify", 0.0, 4.0, 1, thread=1),
        span("verify", 1.0, 5.0, 2, thread=2),
        span("eig", 1.0, 3.0, 3, parent=1, thread=1),
        span("eig", 2.0, 4.5, 4, parent=2, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.5)


def test_recorder_nests_per_thread():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: inner())
    outer()
    thread = threading.Thread(target=inner)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    by_thread = {}
    for s in rec.spans:
        by_thread.setdefault(s.thread, []).append(s)
    main_spans = {s.name: s for s in by_thread.pop(threading.get_ident())}
    assert main_spans["inner"].parent == main_spans["outer"].span_id
    assert main_spans["outer"].parent is None
    (other,) = by_thread.values()
    assert other[0].name == "inner" and other[0].parent is None


@pytest.mark.parametrize(
    "samples, want",
    [
        (list(range(1, 31)), (20, 100.0 * 20 / 30, 10)),
        (list(range(1, 12)), (1, 100.0 / 11, 10)),
        (list(range(1, 11)), (10, 100.0, 0)),  # too few: maximum, flagged
        ([1] * 5 + [2] * 10 + [3] * 10, (2, 60.0, 10)),  # ties are not beyond
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, want):
    value, pct, beyond = tail_percentile(samples)
    assert (value, beyond) == (want[0], want[2])
    assert pct == pytest.approx(want[1])


def test_union_of_spans():
    assert merge_intervals([(3, 5), (0, 1), (0.5, 2), (5, 6), (7, 7)]) == [(0, 2), (3, 6)]
    assert covered([(0, 2), (1, 3), (5, 9)], 1.0, 6.0) == pytest.approx(3.0)


def test_outside_verify_is_command_wall_minus_union_of_verifier_spans():
    main = 1
    spans = [
        span("cli.main", 0.0, 10.0, 1, thread=main),
        span("torus.verify_bound_torus", 1.0, 5.0, 2, thread=2),
        span("torus.verify_bound_torus", 3.0, 8.0, 3, thread=3),
        span("torus.negative_spectrum", 1.5, 4.5, 4, parent=2, thread=2, n=10, negatives=1),
    ]
    layers = worker.layer_metrics(spans, (0.0, 10.0), items=2, main_thread=main)
    assert layers["cli.outside_verify_s"] == pytest.approx(10.0 - 7.0)
    assert layers["cli.concurrency"] == pytest.approx((4.0 + 5.0) / 10.0)
    assert layers["torus.eigensolve_s"] == pytest.approx(3.0)
    assert layers["torus.accounted_share"] == pytest.approx(3.0 / 9.0)
    assert layers["torus.negative_share"] == pytest.approx(0.1)


def test_wrappers_restore_every_patched_attribute():
    resolved = {t: resolve(t) for t in worker.TARGETS}
    before = {t: vars(owner)[attr] for t, (owner, attr) in resolved.items()}
    rec = SpanRecorder()
    with pytest.raises(RuntimeError):
        with patched(rec, worker.TARGETS) as missing:
            assert missing == []
            from ltbounds import interp, torus

            interp.k1(0.5)
            torus.ScalarPotentialD.random(2, 1, 1.0, seed=3)
            assert all(vars(o)[a] is not before[t] for t, (o, a) in resolved.items())
            raise RuntimeError("leave the block by an exception")
    assert {s.name for s in rec.spans} >= {"interp.k1", "torus.ScalarPotentialD.random"}
    assert all(vars(o)[a] is before[t] for t, (o, a) in resolved.items())


def test_rhs_scale_fault_counts_as_failed_and_exits_nonzero(monkeypatch, capsys):
    argv = ["verify", "--kind", "h2", "--seeds", "2", "--rhs-scale", "0.01"]
    monkeypatch.setitem(worker.WORKLOADS, "fault", [argv])
    result = worker.run_workload("fault", seed=1, seconds=0.01, references={"fault": {" ".join(argv): None}})
    assert result["failed"] == result["attempted"] >= 2
    assert "exit code 1" in result["problems"]
    result["env"] = worker.environment()

    def fake_measure(workload, seed, seconds, trace):
        metrics, lines = run.end_to_end(result, [0.1])
        return metrics, lines, [("default", result)]

    monkeypatch.setattr(run, "measure", fake_measure)
    code = run.main(["--workload", "line1d", "--seed", "1", "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    final = json.loads(out[-1])
    assert final["correct"] is False and final["failed"] == result["failed"]
    assert any(line.startswith("failed_share 1 ") for line in out)
