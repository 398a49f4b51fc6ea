"""Stackless BVH traversal with a restart trail (Laine 2010).

Section 2.4 notes that depth-first traversal needs a per-thread stack
"or potentially a bit trail for binary trees".  Hardware units often
prefer the trail: it needs a couple of machine words per ray instead of
an 8-entry stack with spill handling.  This module implements a restart
trail for occlusion rays so the two schemes can be compared.

Formulation: each full descent from the root records, per level, whether
*both* children were hit (``pending`` bit) and whether this descent must
take the *far* child at that level (``taken`` bit).  A descent always
visits the near child at levels with no direction yet.  When a path dead
-ends without an intersection, the deepest level whose far side is still
owed (``pending & ~taken``) becomes the next restart point: its taken
bit is set, all deeper state is cleared, and traversal restarts from the
root.  Because the ray's interval never shrinks during occlusion
traversal, the re-descent reproduces the same box results, so the
enumeration visits exactly the leaves a stack would.

Restart descents re-fetch the interior nodes along the path, so the
trail performs strictly more node fetches than the stack - that is the
hardware tradeoff; the test suite asserts hit-result equivalence and
the access overhead's sign.
"""

from __future__ import annotations

from typing import Optional

from repro.bvh.nodes import FlatBVH
from repro.geometry.intersect import ray_aabb_intersect, ray_triangle_intersect
from repro.geometry.ray import Ray
from repro.telemetry.stats import TraversalStats

#: Safety bound on tree depth supported by the trail.
_MAX_LEVELS = 128


def occlusion_any_hit_stackless(
    bvh: FlatBVH,
    ray: Ray,
    stats: Optional[TraversalStats] = None,
) -> bool:
    """Any-hit occlusion traversal using a restart trail (no stack).

    Produces exactly the same hit/miss answer as
    :func:`repro.trace.traversal.occlusion_any_hit`; only the
    memory-access pattern differs (restarts re-fetch path nodes).
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

    stats.rays += 1
    stats.box_tests += 1
    hit_root, _ = ray_aabb_intersect(
        ox, oy, oz, ix, iy, iz, t_min, t_max,
        lo_x[0], lo_y[0], lo_z[0], hi_x[0], hi_y[0], hi_z[0],
    )
    if not hit_root:
        return False

    pending = 0  # levels where both children were hit on this path
    taken = 0    # levels where this descent must take the far child
    while True:
        node = 0
        level = 0
        dead_end = False
        while left[node] >= 0:
            child = left[node]
            other = right[node]
            stats.node_fetches += 1
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
            bit = 1 << level
            if hit_l and hit_r:
                near, far = (child, other) if t_l <= t_r else (other, child)
                pending |= bit
                node = far if taken & bit else near
            elif hit_l or hit_r:
                # One live side only; the trail never points here.
                node = child if hit_l else other
            else:
                dead_end = True
                break
            level += 1
            if level >= _MAX_LEVELS:
                raise RuntimeError("tree deeper than the trail supports")

        if not dead_end:
            start = first_tri[node]
            for tri in range(start, start + tri_count[node]):
                stats.tri_fetches += 1
                stats.tri_tests += 1
                t = ray_triangle_intersect(
                    ox, oy, oz, dx, dy, dz, t_min, t_max,
                    tv0[tri], tv1[tri], tv2[tri],
                )
                if t is not None:
                    stats.hits += 1
                    return True

        # Advance to the next unexplored path: the deepest owed far side.
        owed = pending & ~taken
        if owed == 0:
            return False
        deepest = owed.bit_length() - 1
        keep = (1 << deepest) - 1
        taken = (taken & keep) | (1 << deepest)
        pending &= keep | (1 << deepest)
