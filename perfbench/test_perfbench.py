"""Tests for the benchmark's own code: span arithmetic, statistics helpers,
throughput and failure accounting, and the result schema."""

import json
import statistics
import types
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
from tracing import Span

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),     # overlaps a: [1, 5] is covered once
        Span("a.child", 1.5, 2.5, 1),
        Span("c", 8.0, 12.0, 0),    # clipped to the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(1.0)   # only its own child counts
    assert selfs[3] == pytest.approx(1.0)   # a leaf keeps its duration


def test_tracer_records_nesting_and_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    originals = (ns.inner, ns.outer)
    tracer = tracing.Tracer()
    tracer.wrap(ns, "inner", "inner", lambda args, kwargs, out: {"arg": args[0]})
    tracer.wrap(ns, "outer", "outer")
    with tracer.span("root"):
        assert ns.outer(3) == 8
    tracer.unwrap_all()
    assert (ns.inner, ns.outer) == originals
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("root", None), ("outer", 0), ("inner", 1)]
    assert tracer.spans[2].attrs == {"arg": 3}
    assert all(s.end >= s.start for s in tracer.spans)


def test_span_closes_when_call_raises():
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = tracing.Tracer()
    tracer.wrap(ns, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    with tracer.span("after"):
        pass
    assert tracer.spans[1].parent is None


def test_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = tracing.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == statistics.median(values)
    assert tracing.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        tracing.quartiles([])


@pytest.mark.parametrize("p", [0.0, 25.0, 50.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy(p):
    values = [0.3, 9.1, 2.2, 4.8, 7.7, 1.0, 5.5, 6.1, 3.3, 8.4, 0.9]
    assert tracing.percentile(values, p) == pytest.approx(np.percentile(values, p))


@pytest.mark.parametrize("count, expected", [
    (10_000, 99.9), (1000, 99.0), (999, 90.0), (100, 90.0), (99, 75.0),
    (40, 75.0), (39, 50.0), (1, 50.0)])
def test_tail_percentile_leaves_ten_calls_beyond(count, expected):
    assert tracing.tail_percentile(count) == expected


def test_utt_per_s_counts_successful_units_of_one_kind():
    reps = [
        run.Rep(2.0, 1000, False, {"q": 1}),
        run.Rep(4.0, 1000, True, {"q": 1}),
        run.Rep(1.0, 1000, False, None, "boom"),
        run.Rep(2.5, 1000, False, {"q": 1}),
    ]
    assert run.utt_per_s(reps) == [500.0, 400.0]
    assert run.utt_per_s(reps, traced=True) == [250.0]
    assert run.timed_utt_per_s(reps) == pytest.approx(2000 / 4.5)
    assert run.timed_utt_per_s(reps, traced=True) == 250.0
    assert run.timed_utt_per_s([]) == 0.0


def test_failed_units_counts_errors_and_differing_quality():
    reps = [
        run.Rep(1.0, 10, False, None, "raised"),
        run.Rep(1.0, 10, False, {"q": 1.0}),
        run.Rep(1.0, 10, False, {"q": 1.0}),
        run.Rep(1.0, 10, False, {"q": 1.5}),
    ]
    assert run.failed_units(reps) == 2
    assert run.failed_units(reps[1:3]) == 0


def test_result_line_schema():
    reps = [run.Rep(1.0, 10, False, {"q": 1.0}), run.Rep(1.0, 10, False, None, "x")]
    line = json.loads(run.result_line(reps, {"utt_per_s": (12.5, "1/s")}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line == {"correct": False, "attempted": 2, "failed": 1,
                    "metrics": {"utt_per_s": {"value": 12.5, "unit": "1/s"}}}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _span(name, start, end, parent, **attrs):
    return Span(name, start, end, parent, attrs)


def test_layer_metrics_from_synthetic_spans():
    spans = [
        _span(run.UNIT_SPAN, 0.0, 10.0, None),                      # 0
        _span("training.run_stage1", 0.0, 4.0, 0),                  # 1
        _span("training.batch_loss", 0.0, 2.0, 1),                  # 2
        _span("model.forward", 0.0, 1.0, 2, rows=32, grad=True),    # 3
        _span("training.run_stage2", 4.0, 8.0, 0),                  # 4
        _span("training.batch_loss", 4.0, 6.0, 4),                  # 5
        _span("guidance.ag_loss", 4.5, 4.6, 5),                     # 6
        _span("guidance.ag_loss", 4.6, 4.8, 5),                     # 7
        _span("model.greedy_decode", 8.0, 10.0, 0, emitted=6),      # 8
        _span("model.forward", 8.0, 9.0, 8, rows=4, grad=False),    # 9
        _span("model.forward", 9.0, 10.0, 8, rows=8, grad=False),   # 10
    ]
    out = run.layer_metrics(spans, traced=90.0, untraced=100.0)
    assert set(out) == set(run.PER_LAYER)
    assert out["guidance.ag_loss.calls_per_step"] == 1.0
    assert out["guidance.ag_loss.calls_per_step.stage1"] == 0.0
    assert out["guidance.ag_loss.calls_per_step.stage2"] == 2.0
    assert out["guidance.ag_loss.ms_per_step"] == pytest.approx(300.0)
    assert out["model.greedy_decode.rows_per_token"] == pytest.approx(12 / 6)
    assert out["model.greedy_decode.share"] == pytest.approx(0.2)
    assert out["model.forward.grad_calls"] == 1.0
    assert out["model.forward.nograd_calls"] == 2.0
    assert out["model.forward.calls"] == 3.0
    assert out["training.batch_loss.self_ms"] == pytest.approx((1000.0 + 1700.0) / 2)
    assert out["numerics.backward.ms_per_step"] == 0.0
    assert out["trace.overhead_pct"] == pytest.approx(100.0 * (100.0 / 90.0 - 1.0))
