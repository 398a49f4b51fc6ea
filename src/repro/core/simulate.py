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
from repro.core.table import PredictorTable
from repro.geometry.ray import RayBatch
from repro.telemetry.publish import (
    FRACTION_BUCKETS,
    publish_simulation_result,
    publish_table_stats,
    table_stats_state,
)
from repro.trace.wavefront import wavefront_verify_batch

#: Ray-buffer capacity of the baseline RT unit (8 warps x 32 threads).
DEFAULT_IN_FLIGHT = 256

#: Widest window whose verifications are speculated in one batch per
#: call.  Above it each window's own batch is large, and the guess pass
#: costs more than the launches it saves (crossover measured in
#: docs/ARCHITECTURE.md).
_SPECULATE_MAX_WINDOW = 64


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


def _subtree_tri_ranges(bvh: FlatBVH) -> Tuple[np.ndarray, np.ndarray]:
    """Per node, the ``[lo, hi)`` triangle range its subtree covers.

    The builders store every subtree's triangles contiguously, so a
    triangle ``t`` lies under node ``s`` iff ``lo[s] <= t < hi[s]``.
    Folded bottom-up, one gather per tree level.
    """
    leaf = bvh.left < 0
    lo = np.where(leaf, bvh.first_tri, 0)
    hi = np.where(leaf, bvh.first_tri + bvh.tri_count, 0)
    for level in reversed(bvh.levels()):
        inner = level[~leaf[level]]
        left, right = bvh.left[inner], bvh.right[inner]
        lo[inner] = np.minimum(lo[left], lo[right])
        hi[inner] = np.maximum(hi[left], hi[right])
    return lo, hi


def _speculate(
    bvh: FlatBVH,
    rays: RayBatch,
    hashes: List[int],
    base_tri: np.ndarray,
    config: PredictorConfig,
    in_flight: int,
) -> Tuple[List[Optional[List[int]]], List[int], List[int], List[int]]:
    """Guess every ray's predicted nodes, then verify them in one batch.

    The guess pass replays the window loop (lookups, then confirms, then
    trains) on a private table built from ``config``.  It guesses that a
    ray verifies iff its baseline triangle lies under a predicted node,
    and trains and confirms that triangle's Go Up Level node.  Guesses
    only decide which verifications run ahead of time: the exact loop
    re-verifies every ray whose real prediction differs.

    Returns:
        ``(guesses, hit_tri, node_fetches, tri_fetches)``, one entry per
        ray: the guessed nodes (``None`` = no prediction) and their
        verification's result and traffic (-1 and zeros if none ran).
    """
    table = PredictorTable(
        num_entries=config.num_entries,
        ways=config.ways,
        nodes_per_entry=config.nodes_per_entry,
        hash_bits=config.hash_bits,
        node_policy=config.node_policy,
    )
    # Not the simulated table: it feeds no introspection counters.
    table._telemetry = False
    lookup, confirm, update = table.lookup, table.confirm, table.update
    n = len(hashes)
    hit = base_tri >= 0
    trained = np.full(n, -1, dtype=np.int64)
    trained[hit] = bvh.ancestors(config.go_up_level)[
        bvh.leaf_of_triangle()[base_tri[hit]]
    ]
    tri_lo, tri_hi = (memoryview(r) for r in _subtree_tri_ranges(bvh))
    tris, nodes_trained = base_tri.tolist(), trained.tolist()

    guesses: List[Optional[List[int]]] = []
    for start in range(0, n, in_flight):
        stop = min(start + in_flight, n)
        window = [lookup(h) for h in hashes[start:stop]]
        guesses.extend(window)
        for i, nodes in zip(range(start, stop), window):
            t = tris[i]
            if nodes and t >= 0:
                for s in nodes:
                    if tri_lo[s] <= t < tri_hi[s]:
                        confirm(hashes[i], nodes_trained[i])
                        break
        for i in range(start, stop):
            if nodes_trained[i] >= 0:
                update(hashes[i], nodes_trained[i])

    hit_tri, node_fetches, tri_fetches = [-1] * n, [0] * n, [0] * n
    ids = [i for i, nodes in enumerate(guesses) if nodes]
    if ids:
        with telemetry.span(
            "predictor.verify", engine="wavefront", rays=len(ids),
            speculative=True,
        ):
            tri, counters, _ = wavefront_verify_batch(
                bvh, rays.subset(ids), [guesses[i] for i in ids]
            )
        for i, t, nf, tf in zip(
            ids, tri.tolist(), counters.node_fetches.tolist(),
            counters.tri_fetches.tolist(),
        ):
            hit_tri[i], node_fetches[i], tri_fetches[i] = t, nf, tf
    return guesses, hit_tri, node_fetches, tri_fetches


def simulate_predictor(
    bvh: FlatBVH,
    rays: RayBatch,
    config: Optional[PredictorConfig] = None,
    in_flight: int = DEFAULT_IN_FLIGHT,
    keep_outcomes: bool = False,
    predictor: Optional[RayPredictor] = None,
) -> SimulationResult:
    """Run the functional predictor simulation over ``rays`` in order.

    Rays are hashed in one batch, and one memoized full-occlusion pass
    per stream (:mod:`repro.core.baseline`) supplies every unverified
    ray's fallback and the baseline counters.  Each ``in_flight`` window
    then probes the table once per ray, all against the window-start
    state; verifies the predictions; and at the drain confirms verified
    rays, then trains hitting rays, each in ray order.  The probes stay
    per ray because AO rays from neighbouring pixels hash alike, so most
    of a window's updates hit a table set another update also hits.

    Verification is speculated, then checked.  A ray's verification
    result and traffic are a pure function of the ray and its predicted
    nodes (:func:`wavefront_verify_batch` never lets rays interact), so
    at windows up to ``_SPECULATE_MAX_WINDOW`` a guess pass first
    replays the window loop on a private table, guessing each
    verification from the baseline, and every guessed ``(ray, nodes)``
    pair is verified in one batch.  The exact window loop then runs on
    the caller's predictor and re-verifies, once per window, only the
    rays whose predicted nodes differ from their guess.  Wider windows
    skip the guess pass and verify each window's predictions in one
    batch.  Either way the result, and the sequence of calls the
    predictor receives, are those of the plain window loop.
    :func:`repro.reference.simulate_predictor` is the paper-order
    per-ray oracle: per-ray occlusion is identical, while statistics
    that depend on traversal order (which triangle trained the table)
    may differ slightly.

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
            Any object with the :class:`RayPredictor` probe surface
            (``predict``/``confirm``/``train``/``trained_node_for``)
            drops in, e.g. the fault injector's proxy, which sees every
            lookup.  Only these calls reach it; the guess pass uses a
            table of its own.

    Returns:
        A :class:`SimulationResult`; baseline counters come from full
        traversals of the same rays, so ``memory_savings`` is exact.
    """
    if in_flight < 1:
        raise ValueError("in_flight must be >= 1")
    pred = predictor if predictor is not None else RayPredictor(bvh, config)
    hashes = pred.hash_batch(rays.origins, rays.directions).tolist()
    # Delta-published at run end so a reused (pre-warmed) predictor's
    # cumulative counters are not double counted across runs.  Meta
    # predictors (e.g. the adaptive tournament) have no single table and
    # skip the introspection counters.
    table = getattr(pred, "table", None)
    table_base = table_stats_state(table)

    n = len(rays)
    base = baseline_record(bvh, rays, "wavefront")
    base_tri = base.hit_tri.tolist()

    # Per-ray verification hit triangle and traffic: the speculative
    # batch's, replaced ray by ray where the real prediction differs.
    if in_flight <= _SPECULATE_MAX_WINDOW:
        guesses, ver_tri, verify_nf, verify_tf = _speculate(
            bvh, rays, hashes, base.hit_tri,
            getattr(pred, "config", None) or config or PredictorConfig(),
            in_flight,
        )
    else:
        guesses = [None] * n
        ver_tri, verify_nf, verify_tf = [-1] * n, [0] * n, [0] * n
    predicted_nodes = [0] * n
    guard_fallbacks = 0
    predict, confirm, train = pred.predict, pred.confirm, pred.train
    trained_node_for = pred.trained_node_for

    for start in range(0, n, in_flight):
        stop = min(start + in_flight, n)
        m = stop - start
        whashes = hashes[start:stop]

        with telemetry.span("predictor.lookup", engine="wavefront", rays=m):
            seeds = [predict(h) for h in whashes]
        redo: List[int] = []
        for i, nodes in enumerate(seeds, start):
            if nodes:
                predicted_nodes[i] = len(nodes)
                if nodes != guesses[i]:
                    redo.append(i)
            elif guesses[i]:
                # Guessed a prediction the real table did not make.
                ver_tri[i] = -1
                verify_nf[i] = verify_tf[i] = 0
        if telemetry.enabled() and m:
            telemetry.observe(
                "predictor.window_predicted_fraction",
                sum(1 for nodes in seeds if nodes) / m,
                buckets=FRACTION_BUCKETS, engine="wavefront",
            )

        if redo:
            with telemetry.span(
                "predictor.verify", engine="wavefront", rays=len(redo)
            ):
                tri, counters, guard_mask = wavefront_verify_batch(
                    bvh, rays.subset(redo), [seeds[i - start] for i in redo]
                )
            guard_fallbacks += int(np.count_nonzero(guard_mask))
            for i, t, nf, tf in zip(
                redo, tri.tolist(), counters.node_fetches.tolist(),
                counters.tri_fetches.tolist(),
            ):
                ver_tri[i], verify_nf[i], verify_tf[i] = t, nf, tf

        win_tri = ver_tri[start:stop]
        # Policy feedback: these stored nodes were useful.
        for h, t in zip(whashes, win_tri):
            if t >= 0:
                confirm(h, trained_node_for(t))

        # Updates from this window commit only after the window drains.
        # Unverified rays fall back to the memoized full traversal.
        for h, t, b in zip(whashes, win_tri, base_tri[start:stop]):
            if t >= 0:
                train(h, t)
            elif b >= 0:
                train(h, b)

    predicted_nodes = np.asarray(predicted_nodes, dtype=np.int64)
    predicted = predicted_nodes > 0
    verified = np.asarray(ver_tri, dtype=np.int64) >= 0
    verify_nf = np.asarray(verify_nf, dtype=np.int64)
    verify_tf = np.asarray(verify_tf, dtype=np.int64)
    full_nf = np.where(verified, 0, base.node_fetches)
    full_tf = np.where(verified, 0, base.tri_fetches)
    hit = verified | (base.hit_tri >= 0)

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
    publish_table_stats(table, since=table_base, engine="wavefront")
    return result
