"""repro.telemetry - unified observability for the predictor pipeline.

One subsystem, three pillars (see ``docs/OBSERVABILITY.md``):

* **metrics** - a process-global :class:`~repro.telemetry.metrics.Registry`
  of labeled counters/gauges/histograms fed by the traversal counters
  (:class:`~repro.telemetry.stats.TraversalStats`), the predictor
  simulation and the GPU models; read it with
  ``get_registry().snapshot()``;
* **tracing** - :func:`span` brackets pipeline stages (predictor
  lookup/verify/fallback, wavefront kernels, RT-unit runs, BVH builds)
  into a ring-buffered event log exportable as Chrome ``trace_event``
  JSON (``chrome://tracing`` / Perfetto);
* **profiling** - :class:`~repro.telemetry.profiling.PhaseTimer` and the
  opt-in :class:`~repro.telemetry.profiling.SamplingProfiler` feed the
  ``phases`` and ``profile`` sections of the ``repro telemetry``
  artifact.

Telemetry is **off by default** and the off path is designed to cost
nearly nothing: every hook first checks :func:`enabled` (one global
read) and :func:`span` hands back a shared no-op object.  Enable it
with ``REPRO_TELEMETRY=1`` in the environment, the ``--telemetry`` CLI
switch, or :func:`enable` programmatically.

This package deliberately imports nothing from the rest of ``repro`` at
module level, so any subsystem (geometry, trace, gpu, bench) can import
it without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    Registry,
)
from repro.telemetry.profiling import PhaseTimer, SamplingProfiler
from repro.telemetry.tracing import (
    NULL_SPAN,
    EventTracer,
    TraceEvent,
    summarize_spans,
    write_chrome_trace,
)

#: Environment variable switching telemetry on for any entry point.
ENV_VAR = "REPRO_TELEMETRY"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_enabled(value: Optional[str]) -> bool:
    """Whether an environment-variable value means "telemetry on"."""
    return value is not None and value.strip().lower() in _TRUTHY


class _TelemetryState:
    """Process-global switch + instruments (one per process)."""

    __slots__ = ("enabled", "registry", "tracer", "phase_timer",
                 "hook_activations")

    def __init__(self) -> None:
        self.enabled = env_enabled(os.environ.get(ENV_VAR))
        self.registry = Registry()
        self.tracer = EventTracer()
        self.phase_timer = PhaseTimer()
        # How many times an introspection hook's enabled-branch ran.
        # The off-path overhead guard tests assert this stays zero with
        # telemetry off - a hook firing while disabled is a bug.
        self.hook_activations = 0


_STATE = _TelemetryState()


# ----------------------------------------------------------------------
# Switching
# ----------------------------------------------------------------------
def enabled() -> bool:
    """The global on/off switch (the hot-path fast check)."""
    return _STATE.enabled


def enable(reset: bool = False) -> None:
    """Turn telemetry on; with ``reset=True``, start from clean state."""
    if reset:
        reset_telemetry()
    _STATE.enabled = True


def disable() -> None:
    """Turn telemetry off (buffered data is kept until reset)."""
    _STATE.enabled = False


def reset_telemetry() -> None:
    """Clear the registry, tracer, phase timer, and label context."""
    _STATE.registry.reset()
    _STATE.tracer.reset()
    _STATE.phase_timer.reset()
    _STATE.hook_activations = 0
    _CONTEXT_LABELS.clear()


@contextmanager
def enabled_scope(on: bool = True) -> Iterator[None]:
    """Temporarily force telemetry on (or off) - test/CLI helper."""
    before = _STATE.enabled
    _STATE.enabled = on
    try:
        yield
    finally:
        _STATE.enabled = before


# ----------------------------------------------------------------------
# Access
# ----------------------------------------------------------------------
def get_registry() -> Registry:
    """The process-global metrics registry."""
    return _STATE.registry


def get_tracer() -> EventTracer:
    """The process-global event tracer."""
    return _STATE.tracer


def get_phase_timer() -> PhaseTimer:
    """The process-global phase timer (``repro telemetry``'s phases)."""
    return _STATE.phase_timer


def record_hook_activation(count: int = 1) -> None:
    """Count one enabled-branch execution of an introspection hook.

    Called *inside* the ``enabled()`` branch of the predictor-table /
    RT-unit / memory-hierarchy hooks, never on the off path - so the off-path
    overhead guard can assert "hooks did nothing" via this counter
    instead of a brittle wall-clock measurement.
    """
    _STATE.hook_activations += count


def hook_activations() -> int:
    """Total enabled-branch hook executions since the last reset."""
    return _STATE.hook_activations


# ----------------------------------------------------------------------
# Label context: ambient labels (scene, run, ...) merged into every
# metric recorded inside the ``with`` block.  A plain stack, not a
# contextvar: the simulator pipeline is single-threaded per run, and a
# stack keeps the off path free of contextvar lookups.
# ----------------------------------------------------------------------
_CONTEXT_LABELS: List[Dict[str, str]] = []


@contextmanager
def label_context(**labels: object) -> Iterator[None]:
    """Attach ambient labels (e.g. ``scene="SP"``) to nested metrics."""
    _CONTEXT_LABELS.append({k: str(v) for k, v in labels.items()})
    try:
        yield
    finally:
        _CONTEXT_LABELS.pop()


def current_labels(extra: Optional[Dict[str, object]] = None) -> Dict[str, str]:
    """The merged ambient label set (innermost context wins)."""
    merged: Dict[str, str] = {}
    for layer in _CONTEXT_LABELS:
        merged.update(layer)
    if extra:
        merged.update({k: str(v) for k, v in extra.items()})
    return merged


# ----------------------------------------------------------------------
# Recording shims: all guarded by enabled(), so instrumented code can
# call them unconditionally.
# ----------------------------------------------------------------------
def span(name: str, **args: object):
    """A tracing span, or the shared no-op object when telemetry is off."""
    if not _STATE.enabled:
        return NULL_SPAN
    return _STATE.tracer.span(name, **args)


def instant(name: str, **args: object) -> None:
    """Record an instant marker (no-op when off)."""
    if _STATE.enabled:
        _STATE.tracer.instant(name, **args)


def inc_counter(name: str, amount: int = 1, **labels: object) -> None:
    """Increment a labeled counter (ambient labels merged; no-op off)."""
    if _STATE.enabled:
        _STATE.registry.counter(name, **current_labels(labels)).inc(amount)


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set a labeled gauge (ambient labels merged; no-op when off)."""
    if _STATE.enabled:
        _STATE.registry.gauge(name, **current_labels(labels)).set(value)


def observe(
    name: str,
    value: float,
    buckets: Optional[Sequence[float]] = None,
    **labels: object,
) -> None:
    """Observe into a labeled histogram (no-op when telemetry is off)."""
    if _STATE.enabled:
        _STATE.registry.histogram(
            name, buckets=buckets, **current_labels(labels)
        ).observe(value)


__all__ = [
    "ENV_VAR",
    "NULL_SPAN",
    "Counter",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricError",
    "PhaseTimer",
    "Registry",
    "SamplingProfiler",
    "TraceEvent",
    "current_labels",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "env_enabled",
    "get_phase_timer",
    "get_registry",
    "get_tracer",
    "hook_activations",
    "inc_counter",
    "instant",
    "label_context",
    "observe",
    "record_hook_activation",
    "reset_telemetry",
    "set_gauge",
    "span",
    "summarize_spans",
    "write_chrome_trace",
]
