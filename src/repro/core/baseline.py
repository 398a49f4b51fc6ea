"""Memoized baseline (predictor-off) traversal counters.

``simulate_predictor`` needs, for every ray stream it simulates, the
traffic of a *full* occlusion traversal: it is both the denominator of
the paper's memory-savings metrics and the fallback cost of every
unverified ray.  Ablation sweeps (``tab06``/``tab07``/``tab08``) run
many predictor configurations over the *same* ``(bvh, rays)`` unit, and
the baseline is a pure function of that unit - recomputing it per
configuration was the single largest redundant cost in a sweep.

This module memoizes one :class:`BaselineRecord` per
``(bvh, rays, engine)``:

* Per-ray independence: a ray's full-traversal result and counters do
  not depend on which other rays share the batch (wavefront rays only
  share kernel launches, never state), so one whole-stream record can
  serve any subset - a window's fallback rays, a window's verified
  rays, or the predictor-off baseline.
* Engine affinity: order-dependent counters differ between the scalar
  and wavefront engines, so records are keyed by engine and never mix.
* Keying: the BVH is keyed by identity (a strong reference is kept and
  re-checked, so a recycled ``id()`` can never alias) and the rays by a
  content digest - sweeps rebuild ``RayBatch`` views freely, and equal
  ray content must hit.

The cache is a small process-local LRU; entries are a few ``int64``
arrays per ray stream.

Root traces
-----------
The RT-unit timing model (:class:`~repro.gpu.vec_rt_unit.VectorRTUnit`)
starts every run from each ray's *root trace*: its depth-first records
and counters from a stack holding only the root
(:func:`~repro.trace.dfs.dfs_root_trace`).  A root trace is a pure
function of the tree, the ray and the four
:class:`~repro.trace.dfs.TraceCosts`, and a Figure 12 style study runs
each SM's ray batch twice - once without and once with the predictor -
so :func:`root_trace_record` memoizes one trace per ``(bvh, rays,
costs)`` with the same identity pinning and content digest.  Its LRU
holds one entry per SM of the run that asks, and at least two: a
baseline-then-predictor pair at ``k`` SMs traces ``k`` batches, then
finds all ``k`` again.  The records are a few hundred bytes per ray and
pin their tree.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.geometry.ray import RayBatch
from repro.trace.dfs import DFSTrace, TraceCosts, dfs_root_trace
from repro.trace.wavefront import wavefront_occlusion_tri_batch

#: Maximum memoized (bvh, rays, engine) records kept alive.
CACHE_CAPACITY = 8

#: Fewest memoized (bvh, rays, costs) root traces kept alive; a run on
#: more SMs keeps one per SM.
_ROOT_TRACE_CAPACITY = 2

_CacheKey = Tuple[int, str, str]


@dataclass
class BaselineRecord:
    """Per-ray full-traversal results and traffic for one ray stream.

    ``known`` tracks lazy (scalar-engine) fills: the wavefront engine
    computes the whole record in one batched pass, while the scalar
    engine fills rays as their full traversals happen to run.
    """

    hit_tri: np.ndarray
    node_fetches: np.ndarray
    tri_fetches: np.ndarray
    known: np.ndarray
    #: Streams served from this record after its first computation.
    hits: int = 0
    #: Strong references pinning the cache key's identity.
    _bvh: Optional[FlatBVH] = field(default=None, repr=False)

    @classmethod
    def empty(cls, n: int) -> "BaselineRecord":
        return cls(
            hit_tri=np.full(n, -1, dtype=np.int64),
            node_fetches=np.zeros(n, dtype=np.int64),
            tri_fetches=np.zeros(n, dtype=np.int64),
            known=np.zeros(n, dtype=bool),
        )

    def complete(self) -> bool:
        return bool(self.known.all())

    def record(self, index, hit_tri, node_fetches, tri_fetches) -> None:
        """Fill rays (lazy scalar path); already-known rays keep their
        first value (the traversal is deterministic, so they agree)."""
        fresh = ~self.known[index]
        if np.isscalar(index):
            if fresh:
                self.hit_tri[index] = hit_tri
                self.node_fetches[index] = node_fetches
                self.tri_fetches[index] = tri_fetches
                self.known[index] = True
            return
        index = np.asarray(index)
        sel = index[fresh]
        self.hit_tri[sel] = np.asarray(hit_tri)[fresh]
        self.node_fetches[sel] = np.asarray(node_fetches)[fresh]
        self.tri_fetches[sel] = np.asarray(tri_fetches)[fresh]
        self.known[sel] = True


_CACHE: "OrderedDict[_CacheKey, BaselineRecord]" = OrderedDict()


def _rays_digest(rays: RayBatch) -> str:
    """Content digest of a ray stream (subsets/rebuilds with equal
    content must share one baseline)."""
    h = hashlib.sha1()
    for arr in (rays.origins, rays.directions, rays.t_min, rays.t_max):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def baseline_record(
    bvh: FlatBVH, rays: RayBatch, engine: str, compute: bool = True
) -> BaselineRecord:
    """The memoized baseline record for ``(bvh, rays, engine)``.

    Args:
        bvh: acceleration structure (keyed by identity).
        rays: the ray stream (keyed by content digest).
        engine: ``"wavefront"`` or ``"scalar"`` - counters are
            order-dependent, so records never cross engines.
        compute: when True and the engine is ``"wavefront"``, a missing
            or incomplete record is filled eagerly with one batched
            full-occlusion pass.  Scalar records are always returned
            lazily (the caller fills rays as it traverses them).
    """
    key: _CacheKey = (id(bvh), engine, _rays_digest(rays))
    record = _CACHE.get(key)
    if record is not None and record._bvh is bvh:
        _CACHE.move_to_end(key)
        record.hits += 1
    else:
        record = BaselineRecord.empty(len(rays))
        record._bvh = bvh
        _CACHE[key] = record
        _CACHE.move_to_end(key)
        while len(_CACHE) > CACHE_CAPACITY:
            _CACHE.popitem(last=False)
    if compute and engine == "wavefront" and not record.complete():
        with telemetry.span("predictor.baseline", engine=engine, rays=len(rays)):
            hit_tri, counters = wavefront_occlusion_tri_batch(
                bvh, rays, per_ray=True
            )
        record.hit_tri[:] = hit_tri
        record.node_fetches[:] = counters.node_fetches
        record.tri_fetches[:] = counters.tri_fetches
        record.known[:] = True
    return record


_ROOT_TRACES: "OrderedDict[tuple, Tuple[FlatBVH, DFSTrace]]" = OrderedDict()
#: Root-trace lookups since the last clear (evictions keep their counts).
_ROOT_TRACE_LOOKUPS = {"hits": 0, "misses": 0}


def root_trace_record(
    bvh: FlatBVH, rays: RayBatch, costs: TraceCosts, num_sms: int
) -> DFSTrace:
    """The memoized root traces of ``rays`` on ``bvh`` (read-only arrays).

    Keyed by the tree's identity, the rays' content digest and every
    field of ``costs``: the records carry the latencies and spill flags.
    ``num_sms`` is the asking run's SM count; the memo then keeps
    ``max(num_sms, 2)`` traces.
    """
    key = (id(bvh), _rays_digest(rays), *costs)
    entry = _ROOT_TRACES.get(key)
    if entry is not None and entry[0] is bvh:
        _ROOT_TRACES.move_to_end(key)
        _ROOT_TRACE_LOOKUPS["hits"] += 1
        return entry[1]
    _ROOT_TRACE_LOOKUPS["misses"] += 1
    trace = dfs_root_trace(bvh, rays, costs)
    for array in (*trace.planes, trace.start, trace.length, trace.hit_tri,
                  trace.node_fetches, trace.tri_fetches, trace.spills):
        array.flags.writeable = False
    _ROOT_TRACES[key] = (bvh, trace)
    _ROOT_TRACES.move_to_end(key)
    while len(_ROOT_TRACES) > max(num_sms, _ROOT_TRACE_CAPACITY):
        _ROOT_TRACES.popitem(last=False)
    return trace


def clear_baseline_cache() -> None:
    """Drop every memoized record and root trace (tests, or frees pinned
    BVHs)."""
    _CACHE.clear()
    _ROOT_TRACES.clear()
    _ROOT_TRACE_LOOKUPS.update(hits=0, misses=0)


def baseline_cache_info() -> dict:
    """JSON-safe cache summary (telemetry/debugging)."""
    return {
        "entries": len(_CACHE),
        "capacity": CACHE_CAPACITY,
        "hits": sum(rec.hits for rec in _CACHE.values()),
        "root_traces": len(_ROOT_TRACES),
        "root_trace_hits": _ROOT_TRACE_LOOKUPS["hits"],
        "root_trace_misses": _ROOT_TRACE_LOOKUPS["misses"],
    }


__all__ = [
    "CACHE_CAPACITY",
    "BaselineRecord",
    "baseline_cache_info",
    "baseline_record",
    "clear_baseline_cache",
    "root_trace_record",
]
