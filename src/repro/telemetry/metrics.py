"""Labeled metrics: counters, gauges, histograms, and their registry.

The paper's claims are denominated in per-ray and per-stage counts
(predicted/verified/mispredicted rates, node-fetch elision, cache hit
rates), so the registry models exactly that shape: a metric *family* is
a name plus a kind, and each distinct label set (``scene``, ``engine``,
``stage``, ...) owns an independent instrument.  Everything is plain
Python - no external dependencies - and the whole state is exportable
as one JSON-friendly :meth:`Registry.snapshot`.

Instruments are cheap on the hot path: a :class:`Counter` increment is
one integer add, and family lookup is a dict probe.  The global on/off
fast path (skipping even the dict probe) lives one layer up, in
:mod:`repro.telemetry`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: A frozen label set: sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (milliseconds-ish scale; callers
#: timing other quantities should pass explicit edges).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0,
)


class MetricError(ValueError):
    """Metric misuse: kind conflicts, negative counter increments, ..."""


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label dict (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount


class Gauge:
    """A point-in-time value that can move in either direction."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up (or down, with a negative amount)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down."""
        self.value -= amount


class Histogram:
    """A fixed-bucket distribution with cumulative-``le`` semantics.

    ``edges`` are strictly increasing upper bounds; an observation ``v``
    lands in the first bucket whose edge satisfies ``v <= edge``, and in
    the implicit ``+inf`` overflow bucket when it exceeds every edge -
    the Prometheus convention, which keeps exported snapshots easy to
    aggregate.
    """

    __slots__ = ("name", "labels", "edges", "bucket_counts", "count",
                 "sum", "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        edges: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise MetricError(f"histogram {name!r} needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise MetricError(
                f"histogram {name!r} edges must be strictly increasing: {edges}"
            )
        self.name = name
        self.labels = labels
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)  # +1: overflow (+inf)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_raw(
        self,
        bucket_counts: Sequence[int],
        count: int,
        total: float,
        minimum: float,
        maximum: float,
    ) -> None:
        """Fold another histogram's *raw* (non-cumulative) state in.

        :class:`~repro.telemetry.publish.LaneHistogram` and the
        reuse-distance publisher count locally and fold their counts in
        through this once per run.  Bucket counts add element-wise, so the
        result is exactly what observing both streams here would have
        recorded.  A length mismatch means the edges differ and the fold
        would misplace counts, so it raises :class:`MetricError` instead.
        """
        if len(bucket_counts) != len(self.bucket_counts):
            raise MetricError(
                f"histogram {self.name!r} merge: {len(bucket_counts)} raw "
                f"buckets against {len(self.bucket_counts)} local "
                f"(edges differ)"
            )
        if count < 0:
            raise MetricError(
                f"histogram {self.name!r} merge: negative count {count}"
            )
        if count == 0:
            return
        for i, n in enumerate(bucket_counts):
            self.bucket_counts[i] += int(n)
        self.count += int(count)
        self.sum += float(total)
        if minimum < self.min:
            self.min = float(minimum)
        if maximum > self.max:
            self.max = float(maximum)

    def quantile_bound(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q``-quantile.

        A coarse estimate (bucket resolution), adequate for summaries;
        returns ``inf`` when the quantile falls in the overflow bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= target and n:
                return self.edges[i] if i < len(self.edges) else float("inf")
        return float("inf")


Metric = Union[Counter, Gauge, Histogram]


class Registry:
    """All metric families of one run, keyed by name and label set.

    The registry is the single source of truth the CLI, the bench
    harness, and the tests read: every instrumented subsystem creates
    its instruments here and :meth:`snapshot` serializes the whole
    state deterministically (sorted by name, then labels).
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instrument creation (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: Dict[str, object], factory):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if self._kinds[name] != kind:
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{self._kinds[name]}, requested as {kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                return metric
            registered = self._kinds.setdefault(name, kind)
            if registered != kind:
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{registered}, requested as {kind}"
                )
            metric = factory(name, key[1])
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the :class:`Counter` for ``name`` + ``labels``."""
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the :class:`Gauge` for ``name`` + ``labels``."""
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        """Get or create the :class:`Histogram` for ``name`` + ``labels``.

        Reusing an existing instrument with *different* explicit
        ``buckets`` raises :class:`MetricError` - silently keeping the
        first edges would skew every later observation's placement.
        """
        edges = (
            tuple(float(b) for b in buckets)
            if buckets is not None else DEFAULT_BUCKETS
        )
        metric = self._get(
            "histogram", name, labels,
            lambda n, lk: Histogram(n, lk, edges=edges),
        )
        if buckets is not None and metric.edges != edges:
            raise MetricError(
                f"histogram {name!r} already registered with buckets "
                f"{metric.edges}, requested {edges}"
            )
        return metric

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object):
        """Current value of a counter/gauge (``None`` if absent)."""
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None or isinstance(metric, Histogram):
            return None
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family over every label set."""
        total = 0
        for (metric_name, _), metric in self._metrics.items():
            if metric_name == name and not isinstance(metric, Histogram):
                total += metric.value
        return total

    def families(self) -> List[str]:
        """Registered family names, sorted."""
        return sorted(self._kinds)

    def __len__(self) -> int:
        return len(self._metrics)

    def _sorted(self, want) -> Iterable[Metric]:
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, want):
                yield metric

    def snapshot(self) -> dict:
        """Serialize every instrument into a JSON-friendly dict.

        Layout (documented in ``docs/OBSERVABILITY.md``)::

            {"counters":   [{"name", "labels", "value"}, ...],
             "gauges":     [{"name", "labels", "value"}, ...],
             "histograms": [{"name", "labels", "count", "sum", "min",
                             "max", "buckets": [{"le", "count"}, ...]}]}
        """
        counters = [
            {"name": m.name, "labels": dict(m.labels), "value": m.value}
            for m in self._sorted(Counter)
        ]
        gauges = [
            {"name": m.name, "labels": dict(m.labels), "value": m.value}
            for m in self._sorted(Gauge)
        ]
        histograms = []
        for m in self._sorted(Histogram):
            les = [*m.edges, float("inf")]
            # Export cumulative counts (the Prometheus ``le`` convention):
            # each bucket's count covers every observation <= its edge, so
            # the final ``inf`` bucket always equals the total count.
            buckets = []
            running = 0
            for le, c in zip(les, m.bucket_counts):
                running += c
                buckets.append({
                    "le": le if le != float("inf") else "inf",
                    "count": running,
                })
            histograms.append({
                "name": m.name,
                "labels": dict(m.labels),
                "count": m.count,
                "sum": m.sum,
                "min": m.min if m.count else 0.0,
                "max": m.max if m.count else 0.0,
                "buckets": buckets,
            })
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Drop every instrument (fresh run)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
