"""Scalar reference implementations, kept as differential oracles.

Production has one engine per stage: the wavefront batch traversal
(:func:`repro.trace.trace_occlusion_batch`), the windowed functional
predictor simulation (:func:`repro.core.simulate.simulate_predictor`),
the level-synchronous BVH builders and refit (:mod:`repro.bvh`) and the
trace-then-replay RT unit (:func:`repro.gpu.simulate_workload`).  This
package keeps the code they replaced, unchanged, as something
independent to check them against:

* :func:`trace_occlusion_batch` / :func:`trace_closest_batch` - one
  per-ray kernel call per ray.  Hit results are bit-identical to the
  wavefront engine; fetch counters follow the per-ray stack order.
* :func:`simulate_predictor` - the Section 3 flow in exact paper order
  (look up, verify, fall back, ray by ray; training delayed to the end
  of each ``in_flight`` window).  Per-ray occlusion matches production;
  predicted and verified counts may differ slightly.
* :func:`build_bvh` / :func:`refit_bvh` - the per-node builders and the
  reverse refit walk; trees array-identical, refits bit-identical.
* :class:`RTUnit` / :func:`simulate_workload` - the per-thread RT-unit
  stepper; the same :class:`~repro.gpu.rt_unit.RTUnitResult`.

Everything here publishes telemetry under ``engine="scalar"`` and keeps
its lazily filled baseline under the ``"scalar"`` key of
:mod:`repro.core.baseline`, apart from production's.  Only the tests
import this package.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.core.baseline import baseline_record
from repro.core.predictor import PredictorConfig, RayPredictor
from repro.core.simulate import (
    DEFAULT_IN_FLIGHT,
    PredictionOutcome,
    SimulationResult,
)
from repro.errors import TraversalError
from repro.geometry.ray import Ray, RayBatch
from repro.reference.bvh import build_bvh, refit_bvh
from repro.reference.rt_unit import RTUnit, simulate_workload
from repro.telemetry.publish import (
    FRACTION_BUCKETS,
    publish_simulation_result,
    publish_table_stats,
    table_stats_state,
)
from repro.telemetry.stats import TraversalStats
from repro.trace.traversal import closest_hit, occlusion_any_hit, occlusion_any_hit_tri


def _materialize_rays(rays: RayBatch | Iterable[Ray]) -> Sequence[Ray] | RayBatch:
    """A sized, indexable view of ``rays`` for the scalar per-ray loop."""
    if isinstance(rays, (RayBatch, list, tuple)):
        return rays
    return list(rays)


def trace_occlusion_batch(
    bvh: FlatBVH,
    rays: RayBatch | Iterable[Ray],
    stats: Optional[TraversalStats] = None,
) -> np.ndarray:
    """Trace a batch of occlusion rays one by one; boolean hit array."""
    batch = _materialize_rays(rays)
    hits = np.empty(len(batch), dtype=bool)
    local = TraversalStats()
    with telemetry.span("trace.occlusion", engine="scalar", rays=len(batch)):
        for i, ray in enumerate(batch):
            hits[i] = occlusion_any_hit(bvh, ray, stats=local)
    local.publish(engine="scalar", stage="occlusion")
    if stats is not None:
        stats.merge(local)
    return hits


def trace_closest_batch(
    bvh: FlatBVH,
    rays: RayBatch | Iterable[Ray],
    stats: Optional[TraversalStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Trace a batch of closest-hit rays one by one.

    Returns:
        ``(t, tri)`` arrays; ``t`` is ``inf`` and ``tri`` is ``-1`` on miss.
    """
    batch = _materialize_rays(rays)
    ts = np.empty(len(batch), dtype=np.float64)
    tris = np.empty(len(batch), dtype=np.int64)
    local = TraversalStats()
    with telemetry.span("trace.closest", engine="scalar", rays=len(batch)):
        for i, ray in enumerate(batch):
            ts[i], tris[i] = closest_hit(bvh, ray, stats=local)
    local.publish(engine="scalar", stage="closest")
    if stats is not None:
        stats.merge(local)
    return ts, tris


def simulate_predictor(
    bvh: FlatBVH,
    rays: RayBatch,
    config: Optional[PredictorConfig] = None,
    in_flight: int = DEFAULT_IN_FLIGHT,
    keep_outcomes: bool = False,
    predictor: Optional[RayPredictor] = None,
) -> SimulationResult:
    """The functional predictor simulation, one ray at a time.

    Same arguments and result type as
    :func:`repro.core.simulate.simulate_predictor`; each ray runs its
    lookup, verification traversal and fallback before the next ray
    starts, and the window's training commits when the window drains.
    """
    if in_flight < 1:
        raise ValueError("in_flight must be >= 1")
    pred = predictor if predictor is not None else RayPredictor(bvh, config)
    hashes = pred.hash_batch(rays.origins, rays.directions)
    table = getattr(pred, "table", None)
    table_base = table_stats_state(table)

    outcomes: List[PredictionOutcome] = []
    baseline_nodes = 0
    baseline_tris = 0
    mis_nodes = 0
    mis_tris = 0
    guard_fallbacks = 0

    # Lazily-memoized per-ray baseline: full traversals recorded here
    # are reused across configurations sharing this (bvh, rays) unit.
    base = baseline_record(bvh, rays, "scalar", compute=False)

    n = len(rays)
    for start in range(0, n, in_flight):
        stop = min(start + in_flight, n)
        pending: List[Tuple[int, int]] = []
        # Lookup/verify/fallback interleave per ray, so the span
        # brackets the whole concurrency window; the production
        # simulator breaks the same window into per-stage spans.
        with telemetry.span(
            "predictor.window", engine="scalar", rays=stop - start
        ):
            for i in range(start, stop):
                ray = rays[i]
                ray_hash = int(hashes[i])
                outcome = PredictionOutcome()
                nodes = pred.predict(ray_hash)

                hit_tri = -1
                if nodes:
                    outcome.predicted = True
                    outcome.predicted_nodes = len(nodes)
                    verify_stats = TraversalStats()
                    try:
                        hit_tri = occlusion_any_hit_tri(
                            bvh, ray, stats=verify_stats, start_nodes=nodes
                        )
                    except TraversalError:
                        # Corrupted entry point (possible when driving a raw
                        # table without the predictor's range guard): treat
                        # as a misprediction and restart from the root.
                        guard_fallbacks += 1
                        hit_tri = -1
                    outcome.verify_node_fetches = verify_stats.node_fetches
                    outcome.verify_tri_fetches = verify_stats.tri_fetches
                    if hit_tri >= 0:
                        outcome.verified = True
                        # Policy feedback: this stored node was useful.
                        pred.confirm(ray_hash, pred.trained_node_for(hit_tri))

                if not outcome.verified:
                    full_stats = TraversalStats()
                    hit_tri = occlusion_any_hit_tri(bvh, ray, stats=full_stats)
                    outcome.full_node_fetches = full_stats.node_fetches
                    outcome.full_tri_fetches = full_stats.tri_fetches
                    # The fallback *is* this ray's baseline traversal;
                    # memoize it for later configurations.
                    base.record(
                        i, hit_tri,
                        full_stats.node_fetches, full_stats.tri_fetches,
                    )
                    if outcome.predicted:
                        mis_nodes += outcome.verify_node_fetches
                        mis_tris += outcome.verify_tri_fetches

                outcome.hit = hit_tri >= 0
                if outcome.hit:
                    pending.append((ray_hash, hit_tri))

                # Baseline bookkeeping: for verified rays the full traversal
                # never ran, so measure it separately (oracle-free baseline,
                # memoized per ray across configurations).
                if outcome.verified:
                    if not base.known[i]:
                        base_stats = TraversalStats()
                        base_tri = occlusion_any_hit_tri(bvh, ray, stats=base_stats)
                        base.record(
                            i, base_tri,
                            base_stats.node_fetches, base_stats.tri_fetches,
                        )
                    baseline_nodes += int(base.node_fetches[i])
                    baseline_tris += int(base.tri_fetches[i])
                else:
                    baseline_nodes += outcome.full_node_fetches
                    baseline_tris += outcome.full_tri_fetches

                outcomes.append(outcome)

            # Updates from this window commit only after the window drains.
            for ray_hash, hit_tri in pending:
                pred.train(ray_hash, hit_tri)
        if telemetry.enabled() and stop > start:
            window_predicted = sum(
                1 for o in outcomes[start:stop] if o.predicted
            )
            telemetry.observe(
                "predictor.window_predicted_fraction",
                window_predicted / (stop - start),
                buckets=FRACTION_BUCKETS, engine="scalar",
            )

    hits = sum(1 for o in outcomes if o.hit)
    result = SimulationResult(
        num_rays=n,
        predicted=sum(1 for o in outcomes if o.predicted),
        verified=sum(1 for o in outcomes if o.verified),
        hits=hits,
        predictor_node_fetches=sum(o.node_fetches for o in outcomes),
        predictor_tri_fetches=sum(o.tri_fetches for o in outcomes),
        baseline_node_fetches=baseline_nodes,
        baseline_tri_fetches=baseline_tris,
        misprediction_node_fetches=mis_nodes,
        misprediction_tri_fetches=mis_tris,
        # One lookup per ray; one update per hitting ray (this also holds
        # for alternative predictors like the tournament extension).
        table_lookups=n,
        table_updates=hits,
        outcomes=outcomes if keep_outcomes else None,
        guard_fallbacks=guard_fallbacks,
    )
    publish_simulation_result(result, engine="scalar")
    publish_table_stats(table, since=table_base, engine="scalar")
    return result


__all__ = [
    "RTUnit",
    "build_bvh",
    "refit_bvh",
    "simulate_predictor",
    "simulate_workload",
    "trace_closest_batch",
    "trace_occlusion_batch",
]
