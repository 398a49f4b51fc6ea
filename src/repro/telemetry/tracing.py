"""Structured event tracing with Chrome ``trace_event`` export.

A :class:`EventTracer` holds a bounded ring buffer of timestamped
events; :func:`EventTracer.span` brackets a pipeline stage (predictor
lookup, verification wavefront, RT-unit run, BVH build, ...) and
records one *complete* event on exit.  The buffer exports directly to
the Chrome ``trace_event`` JSON format, so a run can be inspected on a
timeline in ``chrome://tracing`` or https://ui.perfetto.dev.

Timestamps are monotonic (``time.perf_counter_ns``) relative to the
tracer's creation, converted to microseconds on export as the format
requires.  The ring buffer keeps the *newest* events when full and
counts what it dropped, so a long run degrades gracefully instead of
growing without bound.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List

#: Default ring-buffer capacity (events); ~64k spans is hours of
#: window-granularity tracing at simulator speeds.
DEFAULT_CAPACITY = 65536


@dataclass
class TraceEvent:
    """One recorded event (a completed span or an instant marker)."""

    name: str
    phase: str  # "X" = complete (has dur), "i" = instant
    ts_ns: int  # start, relative to the tracer epoch
    dur_ns: int  # 0 for instants
    tid: int
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def dur_ms(self) -> float:
        return self.dur_ns / 1e6


class _NullSpan:
    """Reusable no-op span: the disabled-telemetry fast path.

    A single shared instance is handed out for every span request while
    telemetry is off, so the cost of an instrumented block is one
    attribute check plus an empty context-manager enter/exit.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, **args: object) -> None:
        """Ignore extra args (mirrors :meth:`_Span.add`)."""


#: The shared no-op span (identity-comparable in tests).
NULL_SPAN = _NullSpan()


class _Span:
    """An open span; records a complete ("X") event when it exits."""

    __slots__ = ("_tracer", "name", "args", "_start")

    def __init__(self, tracer: "EventTracer", name: str, args: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0

    def add(self, **args: object) -> None:
        """Attach extra args (e.g. results known only at the end)."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter_ns()
        tracer = self._tracer
        tracer._record(TraceEvent(
            name=self.name,
            phase="X",
            ts_ns=self._start - tracer.epoch_ns,
            dur_ns=end - self._start,
            tid=threading.get_ident(),
            args=self.args,
        ))
        return False


class EventTracer:
    """Ring-buffered event log with monotonic timestamps."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.epoch_ns = time.perf_counter_ns()
        self.dropped = 0
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _record(self, event: TraceEvent) -> None:
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)

    def span(self, name: str, **args: object) -> _Span:
        """Open a span; use as ``with tracer.span("stage", rays=n):``."""
        return _Span(self, name, dict(args))

    def instant(self, name: str, **args: object) -> None:
        """Record a zero-duration marker event."""
        self._record(TraceEvent(
            name=name,
            phase="i",
            ts_ns=time.perf_counter_ns() - self.epoch_ns,
            dur_ns=0,
            tid=threading.get_ident(),
            args=dict(args),
        ))

    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def reset(self) -> None:
        """Drop all buffered events and restart the epoch."""
        with self._lock:
            self._events.clear()
            self.dropped = 0
            self.epoch_ns = time.perf_counter_ns()

    def chrome_trace(self, process_name: str = "repro") -> List[dict]:
        """Export as a Chrome ``trace_event`` array.

        The returned list is a valid JSON trace on its own (the viewer
        accepts a bare event array); it leads with a process-name
        metadata record, then every buffered event with microsecond
        timestamps relative to the tracer epoch.
        """
        pid = os.getpid()
        out: List[dict] = [{
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }]
        for ev in self.events():
            record = {
                "name": ev.name,
                "ph": ev.phase,
                "ts": ev.ts_ns / 1e3,
                "pid": pid,
                "tid": ev.tid,
                "args": ev.args,
            }
            if ev.phase == "X":
                record["dur"] = ev.dur_ns / 1e3
            else:
                record["s"] = "t"  # instant scope: thread
            out.append(record)
        return out


def summarize_spans(events: List[TraceEvent]) -> Dict[str, dict]:
    """Aggregate complete events into per-stage timing statistics.

    Returns ``{name: {"count", "total_ms", "mean_ms", "max_ms"}}``,
    sorted by descending total time - the per-stage breakdown the CLI
    summary table and the bench ``telemetry`` section embed.
    """
    agg: Dict[str, List[float]] = {}
    for ev in events:
        if ev.phase != "X":
            continue
        agg.setdefault(ev.name, []).append(ev.dur_ms)
    out: Dict[str, dict] = {}
    for name, durs in sorted(
        agg.items(), key=lambda kv: -sum(kv[1])
    ):
        total = sum(durs)
        out[name] = {
            "count": len(durs),
            "total_ms": round(total, 3),
            "mean_ms": round(total / len(durs), 3),
            "max_ms": round(max(durs), 3),
        }
    return out


def write_chrome_trace(events: List[dict], path: str) -> str:
    """Write a ``{"traceEvents": [...]}`` JSON file loadable by viewers."""
    import json

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events}, handle)
        handle.write("\n")
    return path


__all__ = [
    "DEFAULT_CAPACITY",
    "NULL_SPAN",
    "EventTracer",
    "TraceEvent",
    "summarize_spans",
    "write_chrome_trace",
]
