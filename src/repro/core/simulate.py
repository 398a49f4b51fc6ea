"""Functional (timing-free) simulation of the predictor algorithm.

Implements the Section 3 flow for a stream of occlusion rays:

1. hash the ray and look up the predictor table;
2. on a hit, *verify* by traversing only the predicted subtree(s);
3. a verified ray is done (interior nodes skipped); a mispredicted ray
   restarts with a full traversal from the root;
4. rays that found an intersection train the table with the Go Up Level
   ancestor of the hit leaf.

Concurrency matters: a real RT unit has ~256 rays in flight, so a ray's
table update is not visible to rays that looked up the table while it was
still traversing.  We model this with an ``in_flight`` window: lookups of
a window happen before any update from the same window commits.  This is
exactly why *sorted* rays benefit less (Figure 12): sorting packs similar
rays into the same window, where they cannot train one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.core.baseline import baseline_record
from repro.core.predictor import PredictorConfig, RayPredictor
from repro.errors import TraversalError
from repro.geometry.ray import RayBatch
from repro.telemetry.publish import (
    FRACTION_BUCKETS,
    publish_simulation_result,
    publish_table_stats,
    table_stats_state,
)
from repro.trace.counters import TraversalStats
from repro.trace.traversal import occlusion_any_hit_tri
from repro.trace.wavefront import resolve_engine, wavefront_verify_batch

#: Ray-buffer capacity of the baseline RT unit (8 warps x 32 threads).
DEFAULT_IN_FLIGHT = 256


@dataclass
class PredictionOutcome:
    """Per-ray record of what the predictor did.

    Attributes:
        predicted: the table lookup hit.
        verified: the predicted subtree contained an intersection.
        hit: the ray intersects the scene (by any path).
        predicted_nodes: how many node slots the prediction contained.
        verify_node_fetches / verify_tri_fetches: traffic of the
            verification traversal (zero if not predicted).
        full_node_fetches / full_tri_fetches: traffic of the full
            traversal (zero if verified - that is the whole point).
    """

    predicted: bool = False
    verified: bool = False
    hit: bool = False
    predicted_nodes: int = 0
    verify_node_fetches: int = 0
    verify_tri_fetches: int = 0
    full_node_fetches: int = 0
    full_tri_fetches: int = 0

    @property
    def node_fetches(self) -> int:
        """Total node fetches this ray caused under the predictor."""
        return self.verify_node_fetches + self.full_node_fetches

    @property
    def tri_fetches(self) -> int:
        """Total triangle fetches this ray caused under the predictor."""
        return self.verify_tri_fetches + self.full_tri_fetches


@dataclass
class SimulationResult:
    """Aggregated functional-simulation result for one ray stream."""

    num_rays: int
    predicted: int
    verified: int
    hits: int
    predictor_node_fetches: int
    predictor_tri_fetches: int
    baseline_node_fetches: int
    baseline_tri_fetches: int
    misprediction_node_fetches: int
    misprediction_tri_fetches: int
    table_lookups: int
    table_updates: int
    outcomes: Optional[List[PredictionOutcome]] = None
    #: Verifications aborted by the traversal guard (corrupted predicted
    #: node indices that slipped past the predictor's own range check,
    #: e.g. when a raw table is driven directly).  Each one degraded to
    #: a full root traversal; correctness was preserved.
    guard_fallbacks: int = 0

    # ------------------------------------------------------------------
    @property
    def predicted_rate(self) -> float:
        """p: fraction of rays with a table hit."""
        return self.predicted / self.num_rays if self.num_rays else 0.0

    @property
    def verified_rate(self) -> float:
        """v: fraction of rays whose prediction verified."""
        return self.verified / self.num_rays if self.num_rays else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of rays that intersect the scene at all."""
        return self.hits / self.num_rays if self.num_rays else 0.0

    @property
    def baseline_accesses(self) -> int:
        """Memory accesses of the no-predictor baseline."""
        return self.baseline_node_fetches + self.baseline_tri_fetches

    @property
    def predictor_accesses(self) -> int:
        """Memory accesses with the predictor enabled."""
        return self.predictor_node_fetches + self.predictor_tri_fetches

    @property
    def memory_savings(self) -> float:
        """Net fraction of memory accesses removed by the predictor."""
        if not self.baseline_accesses:
            return 0.0
        return 1.0 - self.predictor_accesses / self.baseline_accesses

    @property
    def node_savings(self) -> float:
        """Fraction of BVH-node fetches removed (Figure 13's biggest bar)."""
        if not self.baseline_node_fetches:
            return 0.0
        return 1.0 - self.predictor_node_fetches / self.baseline_node_fetches

    def nodes_skipped_per_ray(self) -> float:
        """Measured ``n - N`` of Equation 1 (node fetches only)."""
        if not self.num_rays:
            return 0.0
        return (self.baseline_node_fetches - self.predictor_node_fetches) / self.num_rays


def simulate_predictor(
    bvh: FlatBVH,
    rays: RayBatch,
    config: Optional[PredictorConfig] = None,
    in_flight: int = DEFAULT_IN_FLIGHT,
    keep_outcomes: bool = False,
    predictor: Optional[RayPredictor] = None,
    engine: str = "wavefront",
) -> SimulationResult:
    """Run the functional predictor simulation over ``rays`` in order.

    Args:
        bvh: acceleration structure.
        rays: occlusion rays, traced in batch order.
        config: predictor configuration (Table 3 defaults).
        in_flight: concurrency window for delayed table updates; 1 makes
            updates immediately visible (the OU idealization).
        keep_outcomes: retain the per-ray :class:`PredictionOutcome` list
            (needed by the repacking analysis and some tests).
        predictor: reuse an existing (already warmed) predictor instead
            of building a fresh one - used by the multi-SM experiment.
        engine: ``"wavefront"`` (default - batched hashing, then per
            window: per-ray table probes, one verification wavefront,
            the memoized-baseline fallback, and delayed confirms and
            updates in ray order) or ``"scalar"`` (reference - per-ray
            traversal in exact paper order).  Correctness
            (per-ray occlusion) is identical; traversal-order-dependent
            statistics such as which triangle trained the table, and
            therefore downstream predicted / verified rates, may differ
            slightly between engines.

    Returns:
        A :class:`SimulationResult`; baseline counters come from full
        traversals of the same rays, so ``memory_savings`` is exact.
    """
    if in_flight < 1:
        raise ValueError("in_flight must be >= 1")
    resolve_engine(engine)
    pred = predictor if predictor is not None else RayPredictor(bvh, config)
    hashes = pred.hash_batch(rays.origins, rays.directions)
    # Delta-published at run end so a reused (pre-warmed) predictor's
    # cumulative counters are not double counted across runs.  Meta
    # predictors (e.g. the adaptive tournament) have no single table and
    # skip the introspection counters.
    table = getattr(pred, "table", None)
    table_base = table_stats_state(table)

    if engine == "wavefront":
        result = _simulate_wavefront(
            bvh, rays, pred, hashes, in_flight, keep_outcomes
        )
        publish_table_stats(table, since=table_base, engine="wavefront")
        return result

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
        # The scalar reference interleaves lookup/verify/fallback per
        # ray, so the span brackets the whole concurrency window; the
        # wavefront engine breaks the same window into per-stage spans.
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

    result = _finalize_result(
        outcomes, baseline_nodes, baseline_tris, mis_nodes, mis_tris,
        guard_fallbacks, keep_outcomes, engine="scalar",
    )
    publish_table_stats(table, since=table_base, engine="scalar")
    return result


def simulate_baseline(
    bvh: FlatBVH,
    rays: RayBatch,
    engine: str = "scalar",
) -> SimulationResult:
    """Predictor-disabled baseline: plain occlusion traversal, no table.

    This is the ``predictor_off`` rung of the resilience degradation
    ladder (see :mod:`repro.resilience.degrade`): when the functional
    predictor simulation itself is what keeps failing, a sweep can
    still report exact per-ray occlusion and traversal traffic from a
    full traversal.  Predictor-side counters mirror the baseline ones
    (a disabled predictor saves nothing) and the table counters are
    zero, so downstream consumers see ``memory_savings == 0`` rather
    than a hole in the artifact.
    """
    resolve_engine(engine)
    n = len(rays)
    if engine == "wavefront":
        base = baseline_record(bvh, rays, "wavefront")
        nodes = int(base.node_fetches.sum())
        tris = int(base.tri_fetches.sum())
        hit_mask = base.hit_tri >= 0
    else:
        stats = TraversalStats()
        hit_mask = np.zeros(n, dtype=bool)
        for i in range(n):
            hit_mask[i] = occlusion_any_hit_tri(bvh, rays[i], stats=stats) >= 0
        nodes = stats.node_fetches
        tris = stats.tri_fetches
    hits = int(np.count_nonzero(hit_mask))
    outcomes = [
        PredictionOutcome(hit=bool(h), full_node_fetches=0, full_tri_fetches=0)
        for h in hit_mask
    ]
    result = SimulationResult(
        num_rays=n,
        predicted=0,
        verified=0,
        hits=hits,
        predictor_node_fetches=nodes,
        predictor_tri_fetches=tris,
        baseline_node_fetches=nodes,
        baseline_tri_fetches=tris,
        misprediction_node_fetches=0,
        misprediction_tri_fetches=0,
        table_lookups=0,
        table_updates=0,
        outcomes=outcomes,
    )
    publish_simulation_result(result, engine=engine)
    return result


def _finalize_result(
    outcomes: List[PredictionOutcome],
    baseline_nodes: int,
    baseline_tris: int,
    mis_nodes: int,
    mis_tris: int,
    guard_fallbacks: int,
    keep_outcomes: bool,
    engine: str,
) -> SimulationResult:
    """Aggregate per-ray outcomes into a :class:`SimulationResult`.

    Also publishes the run's ``predictor.*`` counters into the global
    telemetry registry (no-op while telemetry is off).
    """
    n = len(outcomes)
    predicted = sum(1 for o in outcomes if o.predicted)
    verified = sum(1 for o in outcomes if o.verified)
    hits = sum(1 for o in outcomes if o.hit)
    result = SimulationResult(
        num_rays=n,
        predicted=predicted,
        verified=verified,
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
    publish_simulation_result(result, engine=engine)
    return result


def _simulate_wavefront(
    bvh: FlatBVH,
    rays: RayBatch,
    pred: RayPredictor,
    hashes: np.ndarray,
    in_flight: int,
    keep_outcomes: bool,
) -> SimulationResult:
    """Wavefront form of the functional simulation.

    One batched full-occlusion pass per *stream* (memoized per
    ``(bvh, rays)`` across configurations, see
    :mod:`repro.core.baseline`) serves both the fallback results of
    every unverified ray and the baseline bookkeeping of every window -
    per-ray wavefront results are independent of batch composition, so
    the whole-stream record is bit-identical to per-window fallback and
    baseline passes.  Each ``in_flight`` window then runs in three
    stages:

    1. one guarded table probe per ray, in ray order, all against the
       window-start table state;
    2. one verification wavefront seeded from every predicted ray's
       entry points (:func:`wavefront_verify_batch`);
    3. when the window drains, policy feedback for verified rays, then
       delayed training for hitting rays, each in ray order.

    The probes stay per ray: AO rays from neighbouring pixels hash
    alike, so most of a window's updates share a table set with another
    update and must apply one after another anyway.  Any object with the
    :class:`~repro.core.predictor.RayPredictor` probe surface
    (``predict``/``confirm``/``train``/``trained_node_for``) drops in,
    e.g. the fault injector's proxy.
    """
    n = len(rays)
    base = baseline_record(bvh, rays, "wavefront")

    predicted = np.zeros(n, dtype=bool)
    verified = np.zeros(n, dtype=bool)
    hit = np.zeros(n, dtype=bool)
    predicted_nodes = np.zeros(n, dtype=np.int64)
    verify_nf = np.zeros(n, dtype=np.int64)
    verify_tf = np.zeros(n, dtype=np.int64)
    full_nf = np.zeros(n, dtype=np.int64)
    full_tf = np.zeros(n, dtype=np.int64)
    guard_fallbacks = 0

    for start in range(0, n, in_flight):
        stop = min(start + in_flight, n)
        m = stop - start
        w = slice(start, stop)
        sub = rays.subset(np.arange(start, stop))
        whashes = hashes[start:stop].tolist()

        with telemetry.span("predictor.lookup", engine="wavefront", rays=m):
            seeds = [pred.predict(h) for h in whashes]
            counts = [len(nodes) if nodes else 0 for nodes in seeds]
        predicted_nodes[w] = counts
        predicted[w] = predicted_nodes[w] > 0
        if telemetry.enabled() and m:
            telemetry.observe(
                "predictor.window_predicted_fraction",
                float(predicted[w].sum()) / m,
                buckets=FRACTION_BUCKETS, engine="wavefront",
            )

        with telemetry.span("predictor.verify", engine="wavefront", rays=m):
            ver_tri, ver_counts, guard_mask = wavefront_verify_batch(
                bvh, sub, seeds
            )
        guard_fallbacks += int(np.count_nonzero(guard_mask))
        win_verified = ver_tri >= 0
        verified[w] = win_verified
        verify_nf[w] = ver_counts.node_fetches
        verify_tf[w] = ver_counts.tri_fetches

        # Fallback for unverified rays (misprediction restart or no
        # prediction) served from the memoized whole-stream baseline.
        win_hit_tri = np.where(win_verified, ver_tri, base.hit_tri[w])
        full_nf[w] = np.where(win_verified, 0, base.node_fetches[w])
        full_tf[w] = np.where(win_verified, 0, base.tri_fetches[w])
        hit[w] = win_hit_tri >= 0

        # Policy feedback: these stored nodes were useful.
        for j in np.flatnonzero(win_verified).tolist():
            pred.confirm(whashes[j], pred.trained_node_for(int(ver_tri[j])))

        # Updates from this window commit only after the window drains.
        for j in np.flatnonzero(win_hit_tri >= 0).tolist():
            pred.train(whashes[j], int(win_hit_tri[j]))

    mis_mask = predicted & ~verified
    outcomes: Optional[List[PredictionOutcome]] = None
    if keep_outcomes:
        outcomes = [
            PredictionOutcome(
                predicted=bool(predicted[i]),
                verified=bool(verified[i]),
                hit=bool(hit[i]),
                predicted_nodes=int(predicted_nodes[i]),
                verify_node_fetches=int(verify_nf[i]),
                verify_tri_fetches=int(verify_tf[i]),
                full_node_fetches=int(full_nf[i]),
                full_tri_fetches=int(full_tf[i]),
            )
            for i in range(n)
        ]
    result = SimulationResult(
        num_rays=n,
        predicted=int(predicted.sum()),
        verified=int(verified.sum()),
        hits=int(hit.sum()),
        predictor_node_fetches=int(verify_nf.sum() + full_nf.sum()),
        predictor_tri_fetches=int(verify_tf.sum() + full_tf.sum()),
        baseline_node_fetches=int(base.node_fetches.sum()),
        baseline_tri_fetches=int(base.tri_fetches.sum()),
        misprediction_node_fetches=int(verify_nf[mis_mask].sum()),
        misprediction_tri_fetches=int(verify_tf[mis_mask].sum()),
        # One lookup per ray; one update per hitting ray.
        table_lookups=n,
        table_updates=int(hit.sum()),
        outcomes=outcomes,
        guard_fallbacks=guard_fallbacks,
    )
    publish_simulation_result(result, engine="wavefront")
    return result
