"""Operation counts and in-memory spans for one benchmark pass.

The recorder lives in the benchmark, not in ``repro.telemetry``:
switching the program's telemetry on also turns on its internal hooks,
which would change what the benchmark measures.  Spans wrap the
benchmark's own calls into the program, so the program runs exactly as
a user would run it.

A pass records one span for itself, one per scene and one per layer
call.  Layer calls run in series and never nest, so a span's self time
is its duration minus its direct children's durations, and the self
times of one pass add up to the pass duration.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

#: The program modules the benchmark times, in pipeline order.
LAYERS = ("scenes", "bvh", "rays", "trace", "core", "gpu")
#: Pseudo-layer for pass and scene spans: checks and bookkeeping.
BENCH = "bench"


@dataclass
class Span:
    """One timed interval of a pass (host seconds from ``perf_counter``)."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: int
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class PassRecorder:
    """Counts one pass's operations and, when tracing, records its spans.

    An operation is a timed layer call or an output check.  A call that
    raises counts as failed (and the exception propagates); a check that
    does not hold counts as failed and the pass goes on.
    """

    def __init__(self, pass_id: int, trace: bool) -> None:
        self.pass_id = pass_id
        self.trace = trace
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.failed_calls: Counter = Counter()
        self.checks = 0
        self.check_failures: List[str] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str = BENCH, **args) -> Iterator[None]:
        """Time the enclosed block as a child of the innermost open span."""
        if not self.trace:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), 0.0,
                    parent, self.pass_id, args)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def call(self, layer: str, fn: Callable, *args, span_args=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed call of ``layer``."""
        self.calls[layer] += 1
        with self.span(f"{layer}.{fn.__name__}", layer, **(span_args or {})):
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed_calls[layer] += 1
                raise

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Count one output check; remember it when it does not hold."""
        self.checks += 1
        if not ok:
            self.check_failures.append(f"pass {self.pass_id}: {name}: {detail}")

    @property
    def attempted(self) -> int:
        return sum(self.calls.values()) + self.checks

    @property
    def failed(self) -> int:
        return sum(self.failed_calls.values()) + len(self.check_failures)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer (``bench`` for pass and scene spans)."""
        child_time: Counter = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: Dict[str, float] = {layer: 0.0 for layer in LAYERS + (BENCH,)}
        for span in self.spans:
            totals[span.layer] += span.duration - child_time[span.span_id]
        return totals

    def layer_seconds(self, layer: str, **match) -> float:
        """Total seconds of ``layer``'s spans whose args include ``match``."""
        return sum(
            span.duration for span in self.spans
            if span.layer == layer
            and all(span.args.get(k) == v for k, v in match.items())
        )


def write_chrome_trace(path: str, recorders: List[PassRecorder]) -> None:
    """Write the spans of ``recorders`` as Chrome trace-event JSON."""
    spans = [span for rec in recorders for span in rec.spans]
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {
                "pass_id": span.pass_id,
                "span_id": span.span_id,
                "parent": span.parent,
                **span.args,
            },
        }
        for span in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
