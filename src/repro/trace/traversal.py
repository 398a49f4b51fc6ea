"""While-while BVH traversal kernels (Algorithm 1 of the paper).

All kernels share the same conventions:

* an interior-node visit fetches one 64-byte node record (the record
  holds both children's boxes, Aila-Laine layout) and performs two
  ray-box tests;
* a leaf visit fetches one triangle record per triangle tested;
* occlusion rays terminate on the first intersection in ``[t_min, t_max]``;
* children are visited near-to-far (the stack receives the farther
  child first).

The scalar hot loops run on :class:`repro.bvh.nodes.HotBVH` plain lists;
per-call numpy overhead would otherwise dominate simulation time.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.errors import TraversalError
from repro.geometry.intersect import ray_aabb_intersect, ray_triangle_intersect
from repro.geometry.ray import Ray
from repro.geometry.ray import RayBatch
from repro.telemetry.stats import TraversalStats
from repro.trace.wavefront import wavefront_closest_batch, wavefront_occlusion_batch


def _checked_start_nodes(start_nodes: Sequence[int], num_nodes: int) -> List[int]:
    """Validate speculative entry points before traversal indexes them.

    The predictor's verification traversal starts at table-provided node
    indices; a corrupted entry must surface as a structured
    :class:`~repro.errors.TraversalError` here, never as a raw
    ``IndexError`` (or, worse, a silently wrong negative index) inside
    the hot loop.
    """
    checked: List[int] = []
    bad: List[int] = []
    for raw in start_nodes:
        node = int(raw)
        if 0 <= node < num_nodes:
            checked.append(node)
        else:
            bad.append(node)
    if bad:
        raise TraversalError(
            f"start node(s) {bad} outside BVH [0, {num_nodes})",
            bad_nodes=bad,
            num_nodes=num_nodes,
        )
    return checked


def occlusion_any_hit(
    bvh: FlatBVH,
    ray: Ray,
    stats: Optional[TraversalStats] = None,
    record_trace: bool = False,
    start_nodes: Optional[Sequence[int]] = None,
) -> bool:
    """Any-hit occlusion traversal (Algorithm 1).

    Args:
        bvh: the acceleration structure.
        ray: the occlusion ray.
        stats: counters to accumulate into (created if omitted but then
            discarded; pass one to observe counts).
        record_trace: log every memory access into ``stats.trace``.
        start_nodes: traverse only from these nodes instead of the root
            (used to verify predictor predictions).  ``None`` means a
            normal full traversal from the root.

    Returns:
        True if the ray intersects any triangle within its interval.

    Raises:
        TraversalError: if any ``start_nodes`` entry is outside the BVH
            (the speculation boundary guard; a full traversal never
            raises).
    """
    return (
        occlusion_any_hit_tri(
            bvh, ray, stats=stats, record_trace=record_trace, start_nodes=start_nodes
        )
        >= 0
    )


def occlusion_any_hit_tri(
    bvh: FlatBVH,
    ray: Ray,
    stats: Optional[TraversalStats] = None,
    record_trace: bool = False,
    start_nodes: Optional[Sequence[int]] = None,
) -> int:
    """Any-hit occlusion traversal returning the intersected triangle.

    Identical to :func:`occlusion_any_hit` but returns the (reordered)
    index of the first intersected triangle, or ``-1`` on a miss.  The
    predictor trains on the *leaf containing this triangle* (its Go Up
    Level ancestor, precisely), so the index matters.
    """
    if stats is None:
        stats = TraversalStats()
    hot = bvh.hot()
    ox, oy, oz = ray.origin
    dx, dy, dz = ray.direction
    ix, iy, iz = ray.inv_direction()
    t_min = ray.t_min
    t_max = ray.t_max

    lo_x, lo_y, lo_z = hot.lo_x, hot.lo_y, hot.lo_z
    hi_x, hi_y, hi_z = hot.hi_x, hot.hi_y, hot.hi_z
    left, right = hot.left, hot.right
    first_tri, tri_count = hot.first_tri, hot.tri_count
    tv0, tv1, tv2 = hot.tri_v0, hot.tri_v1, hot.tri_v2
    trace = stats.trace if record_trace else None

    stats.rays += 1
    if start_nodes is None:
        # A full traversal still box-tests the root before descending.
        stats.box_tests += 1
        hit_root, _ = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, t_min, t_max,
            lo_x[0], lo_y[0], lo_z[0], hi_x[0], hi_y[0], hi_z[0],
        )
        stack: List[int] = [0] if hit_root else []
    else:
        stack = _checked_start_nodes(start_nodes, len(left))

    while stack:
        node = stack.pop()
        child = left[node]
        if child < 0:
            # Leaf: test triangles until the first hit.
            start = first_tri[node]
            for tri in range(start, start + tri_count[node]):
                stats.tri_fetches += 1
                stats.tri_tests += 1
                if trace is not None:
                    trace.append(("tri", tri))
                t = ray_triangle_intersect(
                    ox, oy, oz, dx, dy, dz, t_min, t_max, tv0[tri], tv1[tri], tv2[tri]
                )
                if t is not None:
                    stats.hits += 1
                    return tri
            continue

        # Interior: one node fetch yields both children's boxes.
        stats.node_fetches += 1
        if trace is not None:
            trace.append(("node", node))
        other = right[node]
        stats.box_tests += 2
        hit_l, t_l = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, t_min, t_max,
            lo_x[child], lo_y[child], lo_z[child],
            hi_x[child], hi_y[child], hi_z[child],
        )
        hit_r, t_r = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, t_min, t_max,
            lo_x[other], lo_y[other], lo_z[other],
            hi_x[other], hi_y[other], hi_z[other],
        )
        if hit_l and hit_r:
            # Visit the nearer child first: push the farther one below it.
            if t_l <= t_r:
                stack.append(other)
                stack.append(child)
            else:
                stack.append(child)
                stack.append(other)
        elif hit_l:
            stack.append(child)
        elif hit_r:
            stack.append(other)
    return -1


def occlusion_from_nodes(
    bvh: FlatBVH,
    ray: Ray,
    start_nodes: Sequence[int],
    stats: Optional[TraversalStats] = None,
    record_trace: bool = False,
) -> bool:
    """Verify a prediction: traverse only the subtrees under ``start_nodes``.

    Mirrors the predictor's verification step (Section 3): the ray tests
    the predicted subtree(s) with full-precision intersection tests; a
    hit verifies the prediction, a miss means the ray must restart from
    the root (the caller decides that).
    """
    return occlusion_any_hit(
        bvh, ray, stats=stats, record_trace=record_trace, start_nodes=start_nodes
    )


def closest_hit(
    bvh: FlatBVH,
    ray: Ray,
    stats: Optional[TraversalStats] = None,
    record_trace: bool = False,
) -> Tuple[float, int]:
    """Closest-hit traversal.

    Returns:
        ``(t, tri_index)`` of the nearest intersection, or
        ``(inf, -1)`` on a miss.  ``tri_index`` refers to the reordered
        mesh stored in the BVH.
    """
    if stats is None:
        stats = TraversalStats()
    hot = bvh.hot()
    ox, oy, oz = ray.origin
    dx, dy, dz = ray.direction
    ix, iy, iz = ray.inv_direction()
    t_min = ray.t_min
    best_t = ray.t_max
    best_tri = -1

    lo_x, lo_y, lo_z = hot.lo_x, hot.lo_y, hot.lo_z
    hi_x, hi_y, hi_z = hot.hi_x, hot.hi_y, hot.hi_z
    left, right = hot.left, hot.right
    first_tri, tri_count = hot.first_tri, hot.tri_count
    tv0, tv1, tv2 = hot.tri_v0, hot.tri_v1, hot.tri_v2
    trace = stats.trace if record_trace else None

    stats.rays += 1
    stats.box_tests += 1
    hit_root, _ = ray_aabb_intersect(
        ox, oy, oz, ix, iy, iz, t_min, best_t,
        lo_x[0], lo_y[0], lo_z[0], hi_x[0], hi_y[0], hi_z[0],
    )
    stack: List[int] = [0] if hit_root else []

    while stack:
        node = stack.pop()
        child = left[node]
        if child < 0:
            start = first_tri[node]
            for tri in range(start, start + tri_count[node]):
                stats.tri_fetches += 1
                stats.tri_tests += 1
                if trace is not None:
                    trace.append(("tri", tri))
                t = ray_triangle_intersect(
                    ox, oy, oz, dx, dy, dz, t_min, best_t, tv0[tri], tv1[tri], tv2[tri]
                )
                # On an exact t tie the lowest triangle index wins — the
                # same convention as the wavefront engine, so the reported
                # triangle is traversal-order independent.
                if t is not None and (t < best_t or (t == best_t and tri < best_tri)):
                    best_t = t
                    best_tri = tri
            continue

        stats.node_fetches += 1
        if trace is not None:
            trace.append(("node", node))
        other = right[node]
        stats.box_tests += 2
        hit_l, t_l = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, t_min, best_t,
            lo_x[child], lo_y[child], lo_z[child],
            hi_x[child], hi_y[child], hi_z[child],
        )
        hit_r, t_r = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, t_min, best_t,
            lo_x[other], lo_y[other], lo_z[other],
            hi_x[other], hi_y[other], hi_z[other],
        )
        if hit_l and hit_r:
            if t_l <= t_r:
                stack.append(other)
                stack.append(child)
            else:
                stack.append(child)
                stack.append(other)
        elif hit_l:
            stack.append(child)
        elif hit_r:
            stack.append(other)

    if best_tri >= 0:
        stats.hits += 1
        return best_t, best_tri
    return float("inf"), -1


def occlusion_all_hit_leaves(bvh: FlatBVH, ray: Ray) -> Set[int]:
    """All leaf nodes holding a triangle the ray intersects in-range.

    Oracle studies (Figure 2) need the complete set of satisfiable
    predictions for a ray: a predicted node verifies iff its subtree
    contains one of these leaves.  No statistics are collected; oracles
    are cost-free by definition.
    """
    hot = bvh.hot()
    ox, oy, oz = ray.origin
    dx, dy, dz = ray.direction
    ix, iy, iz = ray.inv_direction()
    t_min = ray.t_min
    t_max = ray.t_max

    lo_x, lo_y, lo_z = hot.lo_x, hot.lo_y, hot.lo_z
    hi_x, hi_y, hi_z = hot.hi_x, hot.hi_y, hot.hi_z
    left, right = hot.left, hot.right
    first_tri, tri_count = hot.first_tri, hot.tri_count
    tv0, tv1, tv2 = hot.tri_v0, hot.tri_v1, hot.tri_v2

    leaves: Set[int] = set()
    hit_root, _ = ray_aabb_intersect(
        ox, oy, oz, ix, iy, iz, t_min, t_max,
        lo_x[0], lo_y[0], lo_z[0], hi_x[0], hi_y[0], hi_z[0],
    )
    stack: List[int] = [0] if hit_root else []
    while stack:
        node = stack.pop()
        child = left[node]
        if child < 0:
            start = first_tri[node]
            for tri in range(start, start + tri_count[node]):
                t = ray_triangle_intersect(
                    ox, oy, oz, dx, dy, dz, t_min, t_max, tv0[tri], tv1[tri], tv2[tri]
                )
                if t is not None:
                    leaves.add(node)
                    break
            continue
        other = right[node]
        hit_l, _ = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, t_min, t_max,
            lo_x[child], lo_y[child], lo_z[child],
            hi_x[child], hi_y[child], hi_z[child],
        )
        hit_r, _ = ray_aabb_intersect(
            ox, oy, oz, ix, iy, iz, t_min, t_max,
            lo_x[other], lo_y[other], lo_z[other],
            hi_x[other], hi_y[other], hi_z[other],
        )
        if hit_l:
            stack.append(child)
        if hit_r:
            stack.append(other)
    return leaves


def trace_occlusion_batch(
    bvh: FlatBVH,
    rays: RayBatch | Iterable[Ray],
    stats: Optional[TraversalStats] = None,
) -> np.ndarray:
    """Trace a batch of occlusion rays; returns a boolean hit array.

    Runs the wavefront engine (:mod:`repro.trace.wavefront`), which
    consumes a :class:`RayBatch` directly and carries its own span and
    counters.  Hit results are bit-identical to the per-ray loop that
    :mod:`repro.reference` keeps as the differential oracle.

    Args:
        bvh: the acceleration structure.
        rays: a :class:`RayBatch` or any iterable of rays.
        stats: counters to accumulate into.
    """
    return wavefront_occlusion_batch(bvh, rays, stats=stats)


def trace_closest_batch(
    bvh: FlatBVH,
    rays: RayBatch | Iterable[Ray],
    stats: Optional[TraversalStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Trace a batch of closest-hit rays with the wavefront engine.

    Returns:
        ``(t, tri)`` arrays; ``t`` is ``inf`` and ``tri`` is ``-1`` on miss.
    """
    return wavefront_closest_batch(bvh, rays, stats=stats)
