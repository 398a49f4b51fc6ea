"""Vectorized wavefront (ray-stream) BVH traversal.

The scalar kernels in :mod:`repro.trace.traversal` walk the tree one ray
at a time with a per-ray stack; every node visit pays Python interpreter
overhead.  This engine instead processes an entire
:class:`~repro.geometry.ray.RayBatch` against the flat BVH *level by
level*: the frontier is a flat list of ``(node, ray)`` *entries* (the
wavefront), and each level runs **one** gathered slab test over every
interior entry and **one** gathered Moeller-Trumbore test over every
(leaf-ray, triangle) pair, using the numpy-batched kernels of
:mod:`repro.geometry.intersect` with per-entry boxes and triangles
(ray-stream tracing in the spirit of Grauer-Gray et al.'s "Minimizing
Ray Tracing Memory Traffic through Quantized Structures and Ray Stream
Tracing").

The number of vectorized kernel launches is therefore bounded by the
*tree depth* - two slab gathers and one triangle gather per level - not
by the ray count or even the node count, which is where the speedup
over the scalar loop comes from.  It is the only batch traversal in
production: :func:`~repro.trace.traversal.trace_occlusion_batch` and
:func:`~repro.trace.traversal.trace_closest_batch` call it directly.

Equivalence contract
--------------------
Hit *results* are bit-identical to the scalar per-ray loops kept in
:mod:`repro.reference` (the differential tests compare the two): both
evaluate the same IEEE-754 double-precision slab and Moeller-Trumbore
arithmetic against the same ``[t_min, t_max]`` intervals, and whether a
ray intersects any in-range triangle (occlusion) or what its minimum hit
parameter is (closest hit) does not depend on traversal order.
Order-*dependent* quantities - which triangle satisfied an any-hit query
first, or how many nodes were fetched before early termination - may
legitimately differ; :class:`~repro.telemetry.stats.TraversalStats`
counters keep their exact scalar semantics (one node fetch per ray per
interior-node visit, one triangle fetch per ray-triangle test) but count
the wavefront's visit order.

Speculation safety
------------------
Whole-batch traversals always start at the root.  Predicted entry
points come in through :func:`wavefront_verify_batch` only, which
degrades a ray with a corrupt predicted node to "verification failed"
(the caller's full-traversal fallback) instead of poisoning the whole
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.geometry.intersect import (
    ray_aabb_intersect_batch,
    ray_triangle_intersect_batch,
)
from repro.geometry.ray import Ray, RayBatch
from repro.telemetry.stats import TraversalStats

#: A frontier: parallel ``(nodes, ray_ids)`` entry arrays, one entry per
#: (node, active ray) pair, processed level by level.
Frontier = Tuple[np.ndarray, np.ndarray]

#: Sentinel for ``np.minimum.at`` triangle reductions (no triangle hit).
_NO_TRI = np.iinfo(np.int64).max


def as_ray_batch(rays: Union[RayBatch, Iterable[Ray]]) -> RayBatch:
    """Coerce an iterable of :class:`Ray` into a :class:`RayBatch`.

    A :class:`RayBatch` passes through untouched - the wavefront engine
    consumes its arrays directly, never materializing per-ray objects.
    """
    if isinstance(rays, RayBatch):
        return rays
    ray_list = list(rays)
    if not ray_list:
        return RayBatch(np.zeros((0, 3)), np.zeros((0, 3)))
    origins = np.array([r.origin for r in ray_list], dtype=np.float64)
    directions = np.array([r.direction for r in ray_list], dtype=np.float64)
    t_min = np.array([r.t_min for r in ray_list], dtype=np.float64)
    t_max = np.array([r.t_max for r in ray_list], dtype=np.float64)
    return RayBatch(origins, directions, t_min, t_max)


@dataclass
class PerRayCounters:
    """Per-ray traversal traffic, attributable ray by ray.

    The wavefront engine amortizes node *work*, but each ray active at a
    node still accounts for one simulated node fetch - the same
    memory-access denomination the paper's figures use - so per-ray
    attribution survives batching.  :mod:`repro.core.simulate` consumes
    these to fill :class:`~repro.core.simulate.PredictionOutcome`.
    """

    node_fetches: np.ndarray
    tri_fetches: np.ndarray
    box_tests: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "PerRayCounters":
        return cls(
            node_fetches=np.zeros(n, dtype=np.int64),
            tri_fetches=np.zeros(n, dtype=np.int64),
            box_tests=np.zeros(n, dtype=np.int64),
        )


def _inv_directions(directions: np.ndarray) -> np.ndarray:
    """Reciprocal directions; zero components become signed infinities.

    Matches the scalar :meth:`Ray.inv_direction` convention: IEEE
    division of 1.0 by a (signed) zero yields the correspondingly signed
    infinity, which makes the slab test degenerate cleanly.
    """
    with np.errstate(divide="ignore"):
        return 1.0 / directions


def _leaf_pairs(
    lnodes: np.ndarray,
    lrids: np.ndarray,
    first_tri: np.ndarray,
    tri_count: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand leaf entries into flat (ray, triangle) test pairs.

    Each leaf entry ``(node, ray)`` becomes ``tri_count[node]`` pairs
    covering the leaf's triangle range, so one gathered kernel call can
    test every pair at a level at once.
    """
    counts = tri_count[lnodes].astype(np.int64, copy=False)
    pair_rids = np.repeat(lrids, counts)
    base = np.repeat(first_tri[lnodes].astype(np.int64, copy=False), counts)
    # Within-leaf offsets 0..count-1 for each entry, fully vectorized.
    ends = np.cumsum(counts)
    within = np.arange(int(ends[-1]) if counts.size else 0, dtype=np.int64)
    within -= np.repeat(ends - counts, counts)
    return pair_rids, base + within


def _any_hit_pass(
    bvh: FlatBVH,
    rays: RayBatch,
    frontier: Frontier,
    hit_tri: np.ndarray,
    counters: PerRayCounters,
) -> int:
    """Run one any-hit wavefront to completion, retiring rays on first hit.

    ``frontier`` seeds the pass; ``hit_tri`` (-1 = no hit yet) and the
    per-ray ``counters`` are updated in place.  Each level runs one
    gathered triangle kernel over every (leaf-ray, triangle) pair and
    one gathered slab kernel over every interior entry.  Rays whose
    ``hit_tri`` turns non-negative are retired: their remaining entries
    are dropped before the next level expands, the wavefront analog of
    the scalar engine's early-return.  When several triangles occlude a
    ray at the same level, the lowest triangle index is recorded
    (deterministic; any-hit callers only rely on *some* in-range hit).

    Returns:
        The number of levels (vectorized iterations) the pass ran.
    """
    origins = rays.origins
    directions = rays.directions
    inv_d = _inv_directions(directions)
    t_min = rays.t_min
    t_max = rays.t_max
    lo, hi = bvh.lo, bvh.hi
    left, right = bvh.left, bvh.right
    first_tri, tri_count = bvh.first_tri, bvh.tri_count
    v0, v1, v2 = bvh.mesh.v0, bvh.mesh.v1, bvh.mesh.v2
    n = len(rays)

    levels = 0
    nodes, rids = frontier
    while nodes.size:
        levels += 1
        alive = hit_tri[rids] < 0
        if not alive.all():
            nodes, rids = nodes[alive], rids[alive]
            if nodes.size == 0:
                break
        is_leaf = left[nodes] < 0

        if is_leaf.any():
            pair_rids, pair_tris = _leaf_pairs(
                nodes[is_leaf], rids[is_leaf], first_tri, tri_count
            )
            # A ray can reach several leaves per level: unbuffered add.
            np.add.at(counters.tri_fetches, pair_rids, 1)
            t = ray_triangle_intersect_batch(
                origins.take(pair_rids, axis=0),
                directions.take(pair_rids, axis=0),
                t_min[pair_rids], t_max[pair_rids],
                v0.take(pair_tris, axis=0), v1.take(pair_tris, axis=0),
                v2.take(pair_tris, axis=0),
            )
            hit = np.isfinite(t)
            if hit.any():
                cand = np.full(n, _NO_TRI, dtype=np.int64)
                np.minimum.at(cand, pair_rids[hit], pair_tris[hit])
                newly = cand != _NO_TRI
                hit_tri[newly] = cand[newly]

        inodes, irids = nodes[~is_leaf], rids[~is_leaf]
        if inodes.size == 0:
            break
        still = hit_tri[irids] < 0
        inodes, irids = inodes[still], irids[still]
        if inodes.size == 0:
            break
        np.add.at(counters.node_fetches, irids, 1)
        np.add.at(counters.box_tests, irids, 2)
        lchild = left[inodes].astype(np.int64, copy=False)
        rchild = right[inodes].astype(np.int64, copy=False)
        o = origins.take(irids, axis=0)
        inv = inv_d.take(irids, axis=0)
        tn = t_min[irids]
        tx = t_max[irids]
        hit_l = ray_aabb_intersect_batch(
            o, inv, tn, tx, lo.take(lchild, axis=0), hi.take(lchild, axis=0)
        )
        hit_r = ray_aabb_intersect_batch(
            o, inv, tn, tx, lo.take(rchild, axis=0), hi.take(rchild, axis=0)
        )
        nodes = np.concatenate([lchild[hit_l], rchild[hit_r]])
        rids = np.concatenate([irids[hit_l], irids[hit_r]])
    return levels


def _root_frontier(
    bvh: FlatBVH, rays: RayBatch, counters: PerRayCounters, t_max: np.ndarray
) -> Frontier:
    """Box-test every ray against the root (scalar pre-descent test)."""
    n = len(rays)
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return empty, empty
    ids = np.arange(n, dtype=np.int64)
    counters.box_tests[ids] += 1
    mask = ray_aabb_intersect_batch(
        rays.origins, _inv_directions(rays.directions),
        rays.t_min, t_max, bvh.lo[0], bvh.hi[0],
    )
    ids = ids[mask]
    if ids.size == 0:
        return empty, empty
    return np.zeros(ids.size, dtype=np.int64), ids


def _accumulate(
    stats: TraversalStats, counters: PerRayCounters, rays: int, hits: int
) -> None:
    """Fold per-ray counters into an aggregate :class:`TraversalStats`."""
    stats.node_fetches += int(counters.node_fetches.sum())
    stats.tri_fetches += int(counters.tri_fetches.sum())
    stats.box_tests += int(counters.box_tests.sum())
    # Every simulated triangle fetch performs exactly one test (scalar
    # convention), so the two counters advance in lockstep.
    stats.tri_tests += int(counters.tri_fetches.sum())
    stats.rays += rays
    stats.hits += hits


#: Bucket edges for the per-pass level-count histogram (tree depths).
_LEVEL_BUCKETS = (4, 8, 12, 16, 20, 24, 32, 48, 64)


def _publish_counters(
    counters: PerRayCounters, rays: int, stage: str, levels: int,
    hits: int = 0,
) -> None:
    """Record one wavefront pass into the global telemetry registry."""
    if not telemetry.enabled():
        return
    telemetry.inc_counter("trace.rays", rays, engine="wavefront", stage=stage)
    telemetry.inc_counter("trace.hits", hits, engine="wavefront", stage=stage)
    telemetry.inc_counter(
        "trace.node_fetches", int(counters.node_fetches.sum()),
        engine="wavefront", stage=stage,
    )
    telemetry.inc_counter(
        "trace.tri_fetches", int(counters.tri_fetches.sum()),
        engine="wavefront", stage=stage,
    )
    telemetry.inc_counter(
        "trace.box_tests", int(counters.box_tests.sum()),
        engine="wavefront", stage=stage,
    )
    # Simulated triangle fetch == one test (scalar convention).
    telemetry.inc_counter(
        "trace.tri_tests", int(counters.tri_fetches.sum()),
        engine="wavefront", stage=stage,
    )
    telemetry.observe(
        "wavefront.levels", levels, buckets=_LEVEL_BUCKETS, stage=stage
    )


def wavefront_occlusion_tri_batch(
    bvh: FlatBVH,
    rays: Union[RayBatch, Iterable[Ray]],
    stats: Optional[TraversalStats] = None,
    per_ray: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, PerRayCounters]]:
    """Any-hit occlusion over a whole batch, returning hit triangles.

    The wavefront counterpart of
    :func:`repro.trace.traversal.occlusion_any_hit_tri`.

    Args:
        bvh: the acceleration structure.
        rays: the occlusion rays (a :class:`RayBatch`, or any iterable of
            :class:`Ray` - coerced without per-ray tracing).
        stats: aggregate counters to accumulate into.
        per_ray: also return the :class:`PerRayCounters`.

    Returns:
        Array of intersected triangle indices (-1 = miss), shape
        ``(n,)``; with ``per_ray=True``, a ``(hit_tri, counters)`` pair.
    """
    batch = as_ray_batch(rays)
    n = len(batch)
    counters = PerRayCounters.zeros(n)
    hit_tri = np.full(n, -1, dtype=np.int64)

    frontier = _root_frontier(bvh, batch, counters, batch.t_max)
    with telemetry.span("wavefront.occlusion", rays=n) as sp:
        levels = _any_hit_pass(bvh, batch, frontier, hit_tri, counters)
        sp.add(levels=levels)
    hits = int((hit_tri >= 0).sum())
    _publish_counters(counters, n, "occlusion", levels, hits)

    if stats is not None:
        _accumulate(stats, counters, n, hits)
    if per_ray:
        return hit_tri, counters
    return hit_tri


def wavefront_occlusion_batch(
    bvh: FlatBVH,
    rays: Union[RayBatch, Iterable[Ray]],
    stats: Optional[TraversalStats] = None,
) -> np.ndarray:
    """Any-hit occlusion over a whole batch; boolean hit array."""
    return wavefront_occlusion_tri_batch(bvh, rays, stats=stats) >= 0


def wavefront_closest_batch(
    bvh: FlatBVH,
    rays: Union[RayBatch, Iterable[Ray]],
    stats: Optional[TraversalStats] = None,
    per_ray: bool = False,
) -> Union[
    Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray, PerRayCounters]
]:
    """Closest-hit traversal over a whole batch.

    The per-ray best-so-far ``t`` doubles as the slab-test upper bound,
    so subtrees provably farther than the current best are pruned - the
    same bound the scalar engine tightens, applied level by level.  In
    almost all cases the final ``t`` is bit-identical to the scalar
    engine's; the exception is a ray grazing a node face, where the slab
    entry ``t`` rounds a ULP above the true intersection parameter and
    the best-``t``-bounded box test culls a subtree one traversal order
    visited before tightening and the other after.  Both engines then
    report genuine intersections within a ULP of each other (the
    property suite pins down exactly this contract).  On an exact ``t``
    tie between triangles of one level the lowest triangle index wins;
    across levels the earliest level keeps the slot, so the reported
    triangle can differ from the scalar engine's on a genuine tie
    (the scalar kernel reports the lowest index it visited).

    Returns:
        ``(t, tri)`` arrays (``inf`` / ``-1`` on miss); with
        ``per_ray=True`` the :class:`PerRayCounters` as a third element.
    """
    batch = as_ray_batch(rays)
    n = len(batch)
    counters = PerRayCounters.zeros(n)
    best_t = batch.t_max.copy()
    best_tri = np.full(n, -1, dtype=np.int64)

    origins = batch.origins
    directions = batch.directions
    inv_d = _inv_directions(directions)
    t_min = batch.t_min
    lo, hi = bvh.lo, bvh.hi
    left, right = bvh.left, bvh.right
    first_tri, tri_count = bvh.first_tri, bvh.tri_count
    v0, v1, v2 = bvh.mesh.v0, bvh.mesh.v1, bvh.mesh.v2

    levels = 0
    with telemetry.span("wavefront.closest", rays=n) as sp:
        nodes, rids = _root_frontier(bvh, batch, counters, best_t)
        while nodes.size:
            levels += 1
            is_leaf = left[nodes] < 0

            if is_leaf.any():
                pair_rids, pair_tris = _leaf_pairs(
                    nodes[is_leaf], rids[is_leaf], first_tri, tri_count
                )
                np.add.at(counters.tri_fetches, pair_rids, 1)
                t = ray_triangle_intersect_batch(
                    origins.take(pair_rids, axis=0),
                    directions.take(pair_rids, axis=0),
                    t_min[pair_rids], best_t[pair_rids],
                    v0.take(pair_tris, axis=0), v1.take(pair_tris, axis=0),
                    v2.take(pair_tris, axis=0),
                )
                # Per-ray minimum over this level's pairs (t is inf on miss).
                cand_t = np.full(n, np.inf)
                np.minimum.at(cand_t, pair_rids, t)
                improved = cand_t < best_t
                if improved.any():
                    at_best = np.isfinite(t) & (t == cand_t[pair_rids])
                    cand_tri = np.full(n, _NO_TRI, dtype=np.int64)
                    np.minimum.at(cand_tri, pair_rids[at_best], pair_tris[at_best])
                    best_t[improved] = cand_t[improved]
                    best_tri[improved] = cand_tri[improved]

            inodes, irids = nodes[~is_leaf], rids[~is_leaf]
            if inodes.size == 0:
                break
            np.add.at(counters.node_fetches, irids, 1)
            np.add.at(counters.box_tests, irids, 2)
            lchild = left[inodes].astype(np.int64, copy=False)
            rchild = right[inodes].astype(np.int64, copy=False)
            o = origins.take(irids, axis=0)
            inv = inv_d.take(irids, axis=0)
            tn = t_min[irids]
            tx = best_t[irids]
            hit_l = ray_aabb_intersect_batch(
                o, inv, tn, tx, lo.take(lchild, axis=0), hi.take(lchild, axis=0)
            )
            hit_r = ray_aabb_intersect_batch(
                o, inv, tn, tx, lo.take(rchild, axis=0), hi.take(rchild, axis=0)
            )
            nodes = np.concatenate([lchild[hit_l], rchild[hit_r]])
            rids = np.concatenate([irids[hit_l], irids[hit_r]])
        sp.add(levels=levels)

    hits = best_tri >= 0
    num_hits = int(hits.sum())
    ts = np.where(hits, best_t, np.inf)
    _publish_counters(counters, n, "closest", levels, num_hits)
    if stats is not None:
        _accumulate(stats, counters, n, num_hits)
    if per_ray:
        return ts, best_tri, counters
    return ts, best_tri


def wavefront_verify_batch(
    bvh: FlatBVH,
    rays: RayBatch,
    start_nodes_per_ray: Sequence[Optional[Sequence[int]]],
    stats: Optional[TraversalStats] = None,
) -> Tuple[np.ndarray, PerRayCounters, np.ndarray]:
    """Batched predictor verification with per-ray entry points.

    Each ray traverses only the subtree(s) named by its own
    ``start_nodes_per_ray`` entry (``None`` or empty = not predicted, the
    ray does not traverse at all).  This is the wavefront form of the
    verification step in :mod:`repro.core.simulate`: rays predicted to
    the *same* node share one active list, so a popular predicted node is
    gathered once per batch instead of once per ray.

    ``start_nodes_per_ray`` holds one entry per ray.
    :func:`~repro.core.simulate.simulate_predictor` passes a whole
    call's guessed predictions in one batch, then, window by window, the
    real predictions that differ from their guess.  Any grouping gives
    the same per-ray answer: a ray's hit triangle, counters and guard
    flag depend only on the ray and its own entry, because rays share
    kernel launches, never state.

    Speculation guard (degraded fallback): a ray whose entry list
    contains an out-of-range node index - a corrupted table entry driven
    past the predictor's own range check - is flagged in the returned
    ``guard_fallback`` mask and skipped, never traversed.  The caller
    treats it exactly like a failed verification (full traversal from the
    root), so corruption costs cycles, not correctness.  This mirrors the
    scalar path, where the per-ray :class:`~repro.errors.TraversalError`
    is caught ray by ray.

    Returns:
        ``(hit_tri, counters, guard_fallback)``: intersected triangle per
        ray (-1 = verification failed or not attempted), per-ray traffic,
        and the guard mask.
    """
    n = len(rays)
    if len(start_nodes_per_ray) != n:
        raise ValueError(
            f"start_nodes_per_ray has {len(start_nodes_per_ray)} entries "
            f"for {n} rays"
        )
    counters = PerRayCounters.zeros(n)
    hit_tri = np.full(n, -1, dtype=np.int64)
    guard_fallback = np.zeros(n, dtype=bool)

    num_nodes = bvh.num_nodes
    seed_nodes: List[int] = []
    seed_rids: List[int] = []
    for i, nodes in enumerate(start_nodes_per_ray):
        if not nodes:
            continue
        entry: List[int] = []
        ok = True
        for raw in nodes:
            node = int(raw)
            if 0 <= node < num_nodes:
                entry.append(node)
            else:
                ok = False
                break
        if not ok:
            guard_fallback[i] = True
            continue
        seed_nodes.extend(entry)
        seed_rids.extend([i] * len(entry))

    frontier = (
        np.asarray(seed_nodes, dtype=np.int64),
        np.asarray(seed_rids, dtype=np.int64),
    )
    with telemetry.span(
        "wavefront.verify", rays=n, seeded=len(seed_rids),
        guarded=int(guard_fallback.sum()),
    ) as sp:
        levels = _any_hit_pass(bvh, rays, frontier, hit_tri, counters)
        sp.add(levels=levels)
    hits = int((hit_tri >= 0).sum())
    _publish_counters(counters, n, "verify", levels, hits)

    if stats is not None:
        _accumulate(stats, counters, n, hits)
    return hit_tri, counters, guard_fallback
