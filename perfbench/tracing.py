"""In-memory span tracer and the statistics helpers the benchmark reports with.

A `Tracer` replaces module or class attributes with wrappers that record one
span per call: name, start, end, the index of the enclosing span, and any
attributes an annotator derives from the call. Spans stay in memory until
`write_jsonl` at the end of a run. Attributes are wrapped where the caller
looks them up, so `training.backward` is wrapped rather than
`numerics.backward`: `training` binds the name with `from .numerics import`.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Sequence

# Percentiles tried for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Annotator = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a `with` block."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str,
             annotate: Annotator | None = None) -> None:
        """Record a span named `name` around every call of `owner.attr`."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if annotate is not None:
                tracer.spans[index].attrs.update(annotate(args, kwargs, result))
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def children(spans: Sequence[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            kids[span.parent].append(i)
    return kids


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    kids = children(spans)
    out = []
    for span, own in zip(spans, kids):
        covered = 0.0
        reach = span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in own):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (the numpy default) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> float:
    """The highest percentile in TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND samples beyond it; the median below that."""
    for p in TAIL_PERCENTILES:
        if round(count * (100.0 - p) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return p
    return 50.0
