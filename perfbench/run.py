"""Benchmark of agadapt's three pipeline stages on a prepared backbone.

    python3 perfbench/run.py --workload {pretrain,adapt-ag,eval-decode} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/agadapt`. One process does
all the work, with OpenBLAS and OpenMP pinned to one thread. `setup_s` is the
median time a fresh interpreter takes to import the program (IMPORT_REPEATS
short-lived imports, run before any load) plus the median of SETUP_REPEATS
in-process set-ups: corpus generation, write and read-back, checkpoint save
and load. Then fixed units of work repeat until the next one would end after
S seconds. Every unit's outputs are checked, and a unit that raises or fails
a check counts as failed.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
units alternate untraced and traced, every public function of the measured
layers is wrapped, and the last line reports the per-layer metrics. Spans
are written to perfbench/out/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_PROBE = "import agadapt.checkpoint, agadapt.synthtask, agadapt.training"
WORKLOADS = ("pretrain", "adapt-ag", "eval-decode")

END_TO_END = {
    "setup_s": "s",
    "utt_per_s": "1/s",
    "peak_rss_mb": "MB",
    "token_acc": "fraction",
}


@dataclass
class Rep:
    seconds: float
    utterances: int
    traced: bool
    quality: dict | None = None
    error: str | None = None


def utt_per_s(reps: list[Rep], traced: bool = False) -> list[float]:
    """Per-unit throughput of the successful units (traced or untraced)."""
    return [r.utterances / r.seconds for r in reps
            if r.error is None and r.traced == traced]


def timed_utt_per_s(reps: list[Rep], traced: bool = False) -> float:
    """Utterances processed per second over the timed phase: all successful
    units of one kind, total utterances over total time."""
    done = [r for r in reps if r.error is None and r.traced == traced]
    seconds = sum(r.seconds for r in done)
    return sum(r.utterances for r in done) / seconds if seconds else 0.0


def failed_units(reps: list[Rep]) -> int:
    """Units that raised or failed a check, plus units whose quality figures
    differ from the first successful unit's (every unit has the same inputs)."""
    failed = 0
    reference = None
    for rep in reps:
        if rep.error is None and reference is None:
            reference = rep.quality
        if rep.error is not None or rep.quality != reference:
            failed += 1
    return failed


def result_line(reps: list[Rep], metrics: dict[str, tuple[float, str]]) -> str:
    failed = failed_units(reps)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def bootstrap() -> None:
    """Pin BLAS threads and put the checkout's source first on the path;
    must run before numpy is imported."""
    if not (ROOT / "src" / "agadapt" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'agadapt'} not found; run from a checkout")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the program:
    the process-start share of the set-up, which one process pays once."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return tracing.quartiles(times)[1]


def trace_targets():
    """(owner, attribute, span name, annotator) for every measured function."""
    from agadapt import checkpoint, synthtask, training
    from agadapt.model import Seq2SeqModel

    def forward_attrs(args, kwargs, out):
        tokens = kwargs["tokens"] if "tokens" in kwargs else args[2]
        return {"rows": int(tokens.size),
                "grad": bool(out.logits.requires_grad)}

    def decode_attrs(args, kwargs, out):
        model, prompt = args[0], args[3]
        limit = model.config.max_len - len(prompt)
        max_new = kwargs.get("max_new", args[4] if len(args) > 4 else None)
        if max_new is not None:
            limit = min(limit, max_new)
        return {"emitted": sum(len(h) + (len(h) < limit) for h in out)}

    def adamw_attrs(args, kwargs, out):
        return {"elements": sum(g.size for g in args[2].values())}

    return [
        (Seq2SeqModel, "forward", "model.forward", forward_attrs),
        (Seq2SeqModel, "greedy_decode", "model.greedy_decode", decode_attrs),
        (training, "backward", "numerics.backward", None),
        (training, "adamw_step", "numerics.adamw_step", adamw_attrs),
        (training, "ag_loss", "guidance.ag_loss", None),
        (training, "count_and_select", "guidance.count_and_select", None),
        (training, "batch_loss", "training.batch_loss", None),
        (training, "validation_ce", "training.validation_ce", None),
        (training, "token_accuracy", "training.token_accuracy", None),
        (training, "select_heads", "training.select_heads", None),
        (training, "average_checkpoints", "training.average_checkpoints", None),
        (training, "lid_attribution", "training.lid_attribution", None),
        (training, "pretrain_backbone", "training.pretrain_backbone", None),
        (training, "run_stage1", "training.run_stage1", None),
        (training, "run_stage2", "training.run_stage2", None),
        (training, "evaluate_model", "training.evaluate_model", None),
        (training, "mixed_error_rate", "synthtask.mixed_error_rate", None),
        (synthtask, "generate_utterance", "synthtask.generate_utterance", None),
        (synthtask, "write_corpus", "synthtask.write_corpus", None),
        (synthtask, "read_split", "synthtask.read_split", None),
        (checkpoint, "save_model", "checkpoint.save_model", None),
        (checkpoint, "load_model", "checkpoint.load_model", None),
    ]


def install(tracer: tracing.Tracer) -> None:
    for owner, attr, name, annotate in trace_targets():
        tracer.wrap(owner, attr, name, annotate)


# Per-layer metrics: name -> unit. `.calls` counts are per unit of work,
# `adamw_step.elements` is the mean per step, timings are per-call medians,
# and `.tail` is the percentile `tracing.tail_percentile` picks for the call
# count. A layer the workload never calls reads 0.
PER_LAYER = {
    "numerics.backward.ms_per_step": "ms",
    "numerics.backward.ms_per_step.tail": "ms",
    "numerics.backward.calls": "count",
    "numerics.adamw_step.ms_per_step": "ms",
    "numerics.adamw_step.ms_per_step.tail": "ms",
    "numerics.adamw_step.elements": "count",
    "model.forward.grad_ms": "ms",
    "model.forward.grad_ms.tail": "ms",
    "model.forward.grad_calls": "count",
    "model.forward.nograd_ms": "ms",
    "model.forward.nograd_ms.tail": "ms",
    "model.forward.nograd_calls": "count",
    "model.forward.calls": "count",
    "model.greedy_decode.s": "s",
    "model.greedy_decode.calls": "count",
    "model.greedy_decode.rows_per_token": "ratio",
    "model.greedy_decode.share": "fraction",
    "training.batch_loss.self_ms": "ms",
    "training.batch_loss.self_ms.tail": "ms",
    "training.validation_ce.s": "s",
    "training.token_accuracy.s": "s",
    "training.select_heads.s": "s",
    "training.average_checkpoints.s": "s",
    "training.lid_attribution.s": "s",
    "training.pretrain_backbone.s": "s",
    "training.run_stage1.s": "s",
    "training.run_stage2.s": "s",
    "training.evaluate_model.s": "s",
    "guidance.ag_loss.ms_per_step": "ms",
    "guidance.ag_loss.ms_per_step.tail": "ms",
    "guidance.ag_loss.calls_per_step": "ratio",
    "guidance.ag_loss.calls_per_step.stage1": "ratio",
    "guidance.ag_loss.calls_per_step.stage2": "ratio",
    "guidance.count_and_select.s": "s",
    "synthtask.generate_utterance.ms": "ms",
    "synthtask.write_corpus.s": "s",
    "synthtask.read_split.s": "s",
    "synthtask.mixed_error_rate.s": "s",
    "checkpoint.save_model.s": "s",
    "checkpoint.load_model.s": "s",
    "trace.utt_per_s.traced": "1/s",
    "trace.utt_per_s.untraced": "1/s",
    "trace.overhead_pct": "%",
}

UNIT_SPAN = "bench.unit"
SETUP_SPAN = "bench.setup"


def _median(values: list[float]) -> float:
    return tracing.quartiles(values)[1] if values else 0.0


def _tail(values: list[float]) -> float:
    if not values:
        return 0.0
    return tracing.percentile(values, tracing.tail_percentile(len(values)))


def layer_metrics(spans: list[tracing.Span], traced: float,
                  untraced: float) -> dict[str, float]:
    """Per-layer figures from the spans of one traced run. `traced` and
    `untraced` are the throughputs of the two kinds of unit."""
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
    kids = tracing.children(spans)
    selfs = tracing.self_times(spans)
    units = max(len(by_name.get(UNIT_SPAN, [])), 1)

    def durations(name: str, scale: float = 1.0, where=lambda s: True) -> list[float]:
        return [spans[i].duration * scale for i in by_name.get(name, []) if where(spans[i])]

    def ancestor(index: int, names: tuple[str, ...]) -> str | None:
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name in names:
                return spans[parent].name
            parent = spans[parent].parent
        return None

    def per_unit(name: str, where=lambda s: True) -> float:
        return sum(1 for i in by_name.get(name, [])
                   if where(spans[i]) and ancestor(i, (UNIT_SPAN,))) / units

    out: dict[str, float] = {}
    backward = durations("numerics.backward", 1e3)
    out["numerics.backward.ms_per_step"] = _median(backward)
    out["numerics.backward.ms_per_step.tail"] = _tail(backward)
    out["numerics.backward.calls"] = per_unit("numerics.backward")
    adamw = durations("numerics.adamw_step", 1e3)
    out["numerics.adamw_step.ms_per_step"] = _median(adamw)
    out["numerics.adamw_step.ms_per_step.tail"] = _tail(adamw)
    elements = [spans[i].attrs["elements"] for i in by_name.get("numerics.adamw_step", [])]
    out["numerics.adamw_step.elements"] = sum(elements) / len(elements) if elements else 0.0
    for label, grad in (("grad", True), ("nograd", False)):
        times = durations("model.forward", 1e3, lambda s, g=grad: s.attrs["grad"] == g)
        out[f"model.forward.{label}_ms"] = _median(times)
        out[f"model.forward.{label}_ms.tail"] = _tail(times)
        out[f"model.forward.{label}_calls"] = per_unit(
            "model.forward", lambda s, g=grad: s.attrs["grad"] == g)
    out["model.forward.calls"] = per_unit("model.forward")

    decodes = by_name.get("model.greedy_decode", [])
    out["model.greedy_decode.s"] = _median(durations("model.greedy_decode"))
    out["model.greedy_decode.calls"] = per_unit("model.greedy_decode")
    rows = sum(spans[k].attrs["rows"] for i in decodes for k in kids[i]
               if spans[k].name == "model.forward")
    emitted = sum(spans[i].attrs["emitted"] for i in decodes)
    out["model.greedy_decode.rows_per_token"] = rows / emitted if emitted else 0.0
    unit_time = sum(durations(UNIT_SPAN))
    in_units = sum(spans[i].duration for i in decodes if ancestor(i, (UNIT_SPAN,)))
    out["model.greedy_decode.share"] = in_units / unit_time if unit_time else 0.0

    batch_self = [selfs[i] * 1e3 for i in by_name.get("training.batch_loss", [])]
    out["training.batch_loss.self_ms"] = _median(batch_self)
    out["training.batch_loss.self_ms.tail"] = _tail(batch_self)
    for name in ("validation_ce", "token_accuracy", "select_heads", "average_checkpoints",
                 "lid_attribution", "pretrain_backbone", "run_stage1", "run_stage2",
                 "evaluate_model"):
        out[f"training.{name}.s"] = _median(durations(f"training.{name}"))

    steps = by_name.get("training.batch_loss", [])
    ag_per_step = [[spans[k].duration * 1e3 for k in kids[i] if spans[k].name == "guidance.ag_loss"]
                   for i in steps]
    ag_ms = [sum(calls) for calls in ag_per_step if calls]
    out["guidance.ag_loss.ms_per_step"] = _median(ag_ms)
    out["guidance.ag_loss.ms_per_step.tail"] = _tail(ag_ms)
    out["guidance.ag_loss.calls_per_step"] = (
        sum(map(len, ag_per_step)) / len(steps) if steps else 0.0)
    for stage in ("stage1", "stage2"):
        counts = [len(calls) for i, calls in zip(steps, ag_per_step)
                  if ancestor(i, ("training.run_stage1", "training.run_stage2"))
                  == f"training.run_{stage}"]
        out[f"guidance.ag_loss.calls_per_step.{stage}"] = (
            sum(counts) / len(counts) if counts else 0.0)
    out["guidance.count_and_select.s"] = _median(durations("guidance.count_and_select"))

    out["synthtask.generate_utterance.ms"] = _median(durations("synthtask.generate_utterance", 1e3))
    for name in ("synthtask.write_corpus", "synthtask.read_split", "synthtask.mixed_error_rate",
                 "checkpoint.save_model", "checkpoint.load_model"):
        out[f"{name}.s"] = _median(durations(name))

    out["trace.utt_per_s.traced"] = traced
    out["trace.utt_per_s.untraced"] = untraced
    out["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0) if traced and untraced else 0.0
    return out


def measure(unit, seconds: float, tracer: tracing.Tracer | None):
    """Repeat the unit until the next one would end after `seconds`. With a
    tracer, units alternate untraced and traced, and at least one of each runs.
    Returns the units and the model of the last successful one; earlier models
    are dropped, so memory does not grow with the number of units."""
    reps: list[Rep] = []
    last_model = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        model = unit.fresh()
        if traced:
            install(tracer)
        context = tracer.span(UNIT_SPAN) if traced else nullcontext()
        t0 = time.perf_counter()
        try:
            with context:
                result = unit.run(model)
            seconds_taken = time.perf_counter() - t0
            rep = Rep(seconds_taken, result.utterances, traced, result.quality,
                      "; ".join(result.failures) or None)
            last_model = result.model if rep.error is None else last_model
        except Exception:  # a failed unit is counted, and the run goes on
            seconds_taken = time.perf_counter() - t0
            rep = Rep(seconds_taken, 0, traced, None, traceback.format_exc())
        finally:
            if traced:
                tracer.unwrap_all()
        if rep.error:
            print(f"unit {len(reps)} failed: {rep.error}", file=sys.stderr)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        mean = elapsed / len(reps)
        if elapsed + mean > seconds and (tracer is None or len(reps) >= 2):
            return reps, last_model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bootstrap()
    import workloads

    import_s = import_seconds()
    tracer = tracing.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as tmp:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if tracer:
                install(tracer)
            t0 = time.perf_counter()
            with tracer.span(SETUP_SPAN) if tracer else nullcontext():
                prepared = workloads.load_prepared()
                inputs = workloads.setup(args.workload, args.seed, Path(tmp), prepared)
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.unwrap_all()

        unit = workloads.UNITS[args.workload](inputs, args.seed)
        reps, last_model = measure(unit, args.seconds, tracer)

        quality = dict(next((r.quality for r in reps if r.error is None), None) or {})
        if tracer is None and last_model is not None and args.workload == "adapt-ag":
            quality["token_acc"] = workloads.adapted_token_acc(last_model, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rates = utt_per_s(reps)
    setup_s = [import_s + s for s in setup_times]
    print(f"workload={args.workload} seed={args.seed} units={len(reps)} "
          f"import_s={import_s:.3f} setup_runs_s={[round(s, 3) for s in setup_times]} "
          f"unit_s={[round(r.seconds, 3) for r in reps]}")
    for name, values in (("setup_s", setup_s), ("utt_per_s", rates)):
        if values:
            q1, q2, q3 = tracing.quartiles(values)
            print(f"{name}: median={q2:.4f} q1={q1:.4f} q3={q3:.4f} n={len(values)}")
    print("quality: " + json.dumps(quality, sort_keys=True))

    if tracer is None:
        metrics = {
            "setup_s": (tracing.quartiles(setup_s)[1], END_TO_END["setup_s"]),
            "utt_per_s": (timed_utt_per_s(reps), END_TO_END["utt_per_s"]),
            "peak_rss_mb": (peak_rss_mb, END_TO_END["peak_rss_mb"]),
            "token_acc": (float(quality.get("token_acc", 0.0)), END_TO_END["token_acc"]),
        }
    else:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        values = layer_metrics(tracer.spans, timed_utt_per_s(reps, traced=True),
                               timed_utt_per_s(reps))
        metrics = {name: (values[name], kind) for name, kind in PER_LAYER.items()}
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print(result_line(reps, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
