"""Batched depth-first traversal in the RT unit's stack order.

The RT-unit timing model (:mod:`repro.gpu.vec_rt_unit`) needs more than
a ray's hit: it replays every stack pop, so it needs each pop's cache
lines, latency and spill penalty, in the order the per-thread stepper
(:class:`repro.reference.RTUnit`) pops them.  :func:`dfs_trace` records
exactly that for a batch of rays.  Each iteration pops one entry per
live ray; an interior pop runs one merged slab kernel for both children
(:func:`_slab_exact`, the scalar kernel's operation order) and pushes
the hits near-first, a leaf pop runs one gathered Moeller-Trumbore
kernel over the leaf's triangles and stops at the first hit.

The traversal is a pure function of the tree, the ray, its stack plane
and the four :class:`TraceCosts`: rays never interact, so a ray's
records and counters do not depend on which other rays share a launch.
The timing model relies on that twice - it memoizes root traces per
ray batch (:func:`repro.core.baseline.root_trace_record`) and it traces
the verifications of many warps in one deferred launch.

Records
-------
A *record* is one stack pop: a line run ``[rec, rec + cnt)`` of the
unit's line table (node lines, then triangle lines, so a leaf pop is
its triangles' lines up to the first hit), its latency including the
spill penalty, and whether it ends the ray with a hit.  ``cnt < 0``
marks no visit: an empty stack (:data:`MISS`, a scene miss) or an
invalid pop after a restart (:data:`FAULT`, the stepper's
``TraversalError``).

Speculative stacks hold ``[RESTART_SENTINEL, nodes...]``.  Popping the
sentinel with nothing below it, or a guard-invalid node (which discards
the stack), *links* the trace: the ray restarts from the root, and its
remaining records are its root trace's.  A speculative trace verifies
only until its first restart, and charges the fetches made so far to
the misprediction counters at every restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.geometry.intersect import ray_triangle_intersect_batch
from repro.geometry.ray import RayBatch

#: Marker pushed below predicted nodes; popping it means the prediction
#: failed and the ray must restart from the root (misprediction recovery).
RESTART_SENTINEL = -2

#: Line counts of the records that end a trace without a visit.
MISS = -1
FAULT = -2

#: Rays per root-trace launch: enough to amortize the kernels'
#: per-iteration cost, few enough to bound their temporaries.
_ROOT_CHUNK = 2048


class TraceCosts(NamedTuple):
    """The RT-unit parameters a trace's records depend on."""

    box_test_latency: int
    tri_test_latency: int
    stack_entries: int
    stack_spill_penalty: int


@dataclass
class DFSTrace:
    """Per-ray record runs and counters of a batch of traces.

    Ray ``i``'s records are ``[start[i], start[i] + length[i])`` of the
    record ``planes`` (``rec``, ``cnt``, ``lat`` as int32, ``hit`` as
    bool).  A ``linked`` ray continues with its root trace, which is not
    among its records; its ``hit_tri`` and counters then cover only the
    records before the restart.
    """

    planes: List[np.ndarray]
    start: np.ndarray
    length: np.ndarray
    linked: np.ndarray
    hit_tri: np.ndarray
    verified: np.ndarray
    node_fetches: np.ndarray
    tri_fetches: np.ndarray
    spills: np.ndarray
    #: Batch totals: fetches charged to mispredictions, guard restarts.
    mis_node_fetches: int = 0
    mis_tri_fetches: int = 0
    guard_restarts: int = 0


def _slab_exact(origins, inv_dirs, t_min, t_max, lo, hi):
    """Slab test with the scalar kernel's exact operation order.

    ``np.minimum``/``np.maximum`` propagate NaN; Python's swap-and-fold
    in :func:`~repro.geometry.intersect.ray_aabb_intersect` keeps the
    accumulator on NaN (comparisons are False).  Degenerate rays with
    ``0 * inf`` slab products therefore need this laddered form to stay
    bit-identical to the oracle.
    """
    with np.errstate(invalid="ignore"):
        t1 = (lo - origins) * inv_dirs
        t2 = (hi - origins) * inv_dirs
    swap = t1 > t2
    near = np.where(swap, t2, t1)
    far = np.where(swap, t1, t2)
    # t_near = max(nx, ny, nz, t_min) as a left fold, like Python's max().
    t_near = near[:, 0]
    for v in (near[:, 1], near[:, 2], t_min):
        t_near = np.where(v > t_near, v, t_near)
    t_far = far[:, 0]
    for v in (far[:, 1], far[:, 2], t_max):
        t_far = np.where(v < t_far, v, t_far)
    return t_near <= t_far, t_near


def index_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated index runs ``[starts[i], starts[i] + lengths[i])``."""
    offsets = np.cumsum(lengths) - lengths
    total = int(offsets[-1] + lengths[-1]) if len(lengths) else 0
    return np.arange(total) + np.repeat(starts - offsets, lengths)


def dfs_trace(
    bvh: FlatBVH,
    origins: np.ndarray,
    directions: np.ndarray,
    inv_directions: np.ndarray,
    t_min: np.ndarray,
    t_max: np.ndarray,
    stack: np.ndarray,
    depth: np.ndarray,
    costs: TraceCosts,
    speculative: bool = False,
) -> DFSTrace:
    """Trace ``k`` rays depth first from their stack planes.

    Args:
        bvh: the tree.
        origins, directions, inv_directions: ``(k, 3)`` ray planes
            (``inv_directions`` is ``1 / directions``, signed zeros
            giving signed infinities).
        t_min, t_max: ``(k,)`` ray intervals.
        stack: ``(k, width)`` int64 stacks, bottom entry first; ``width``
            leaves room for one pending sibling per tree level below the
            deepest entry plus two fresh children.  Consumed in place.
        depth: ``(k,)`` int64 entries on each stack.  Consumed in place.
        costs: the latencies and the stack size the records charge.
        speculative: the stacks hold predicted nodes above a
            :data:`RESTART_SENTINEL`; hits before the first restart
            verify.

    A trace ends in a hit, an empty stack (:data:`MISS`), an invalid pop
    after a restart (:data:`FAULT`) or a link to the root trace.
    """
    left, right = bvh.left, bvh.right
    num_nodes = bvh.num_nodes
    v0, v1, v2 = (
        np.asarray(v, np.float64) for v in (bvh.mesh.v0, bvh.mesh.v1, bvh.mesh.v2)
    )
    k = len(depth)
    length, node_fetches, tri_fetches, spills, ver_nodes, ver_tris = np.zeros(
        (6, k), dtype=np.int64
    )
    linked, restarted, verified = np.zeros((3, k), dtype=bool)
    hit_tri = np.full(k, -1, dtype=np.int64)
    mis_node_fetches = mis_tri_fetches = guard_restarts = 0
    out: List[List[np.ndarray]] = []  # [ray, rec, cnt, lat, hit]
    steps: List[int] = []

    def emit(j, rec, cnt, lat=0, hit=False):
        out.append(np.broadcast_arrays(j, rec, cnt, lat, hit))
        steps.append(it)

    act = np.arange(k)
    it = 0
    while len(act):
        dep = depth[act]
        empty = dep == 0
        if empty.any():
            emit(act[empty], 0, MISS)
            length[act[empty]] = it + 1
            act, dep = act[~empty], dep[~empty]
            if not len(act):
                break
        dep -= 1
        node = stack[act, dep]
        depth[act] = dep
        if node.min() < 0 or node.max() >= num_nodes:
            sent = node == RESTART_SENTINEL
            bad = ~sent & ((node < 0) | (node >= num_nodes))
            fault = bad & restarted[act]
            # Every restart charges the verification fetches so far
            # as a misprediction; only the first ends verifying.
            charged = act[(sent | bad) & ~fault]
            mis_node_fetches += int(ver_nodes[charged].sum())
            mis_tri_fetches += int(ver_tris[charged].sum())
            guard_restarts += int((bad & ~fault).sum())
            restarted[charged] = True
            if fault.any():
                emit(act[fault], node[fault], FAULT)
                length[act[fault]] = it + 1
            link = (sent & (dep == 0)) | (bad & ~fault)
            linked[act[link]] = True
            length[act[link]] = it
            keep = ~(link | fault)
            act, dep = act[keep], dep[keep]
            node = np.where(sent, 0, node)[keep]
            if not len(act):
                break

        ver = ~restarted[act] if speculative else None
        is_leaf = left[node] < 0
        im = ~is_leaf
        rec = node.copy()
        cnt = np.ones(len(act), dtype=np.int64)
        lat = np.full(len(act), costs.box_test_latency + 1, dtype=np.int64)
        hit = np.zeros(len(act), dtype=bool)

        rows_i = act[im]
        if len(rows_i):
            nodes_i = node[im]
            node_fetches[rows_i] += 1
            if speculative:
                ver_nodes[rows_i[ver[im]]] += 1
            child = left[nodes_i]
            other = right[nodes_i]
            # One merged slab call for both children: rows duplicated,
            # left boxes in the first half, right boxes in the second.
            rows2 = np.concatenate([rows_i, rows_i])
            nodes2 = np.concatenate([child, other])
            hit2, t2 = _slab_exact(
                origins[rows2], inv_directions[rows2], t_min[rows2],
                t_max[rows2], bvh.lo[nodes2], bvh.hi[nodes2],
            )
            k_i = len(rows_i)
            hit_l, hit_r = hit2[:k_i], hit2[k_i:]
            near_first = t2[:k_i] <= t2[k_i:]
            n_push = hit_l.astype(np.int64) + hit_r
            first = np.where(hit_l & hit_r, np.where(near_first, other, child),
                             np.where(hit_l, child, other))
            base = dep[im]
            one = n_push >= 1
            stack[rows_i[one], base[one]] = first[one]
            two = n_push == 2
            if two.any():
                second = np.where(near_first, child, other)
                stack[rows_i[two], base[two] + 1] = second[two]
            depth[rows_i] = base + n_push

        if is_leaf.any():
            rows_l = act[is_leaf]
            counts = bvh.tri_count[node[is_leaf]]
            starts = bvh.first_tri[node[is_leaf]]
            seg = np.repeat(np.arange(len(rows_l)), counts)
            tri_ids = index_runs(starts, counts)
            pos = tri_ids - starts[seg]
            rseg = rows_l[seg]
            t = ray_triangle_intersect_batch(
                origins[rseg], directions[rseg], t_min[rseg], t_max[rseg],
                v0[tri_ids], v1[tri_ids], v2[tri_ids],
            )
            hitp = t < np.inf
            first_pos = counts.copy()  # no hit: every triangle tested
            if hitp.any():
                np.minimum.at(first_pos, seg[hitp], pos[hitp])
            hit_any = first_pos < counts
            tests = np.where(hit_any, first_pos + 1, counts)
            tri_fetches[rows_l] += tests
            hit_tri[rows_l[hit_any]] = (starts + first_pos)[hit_any]
            if speculative:
                vl = ver[is_leaf]
                ver_tris[rows_l[vl]] += tests[vl]
                verified[rows_l[hit_any & vl]] = True
            rec[is_leaf] = num_nodes + starts
            cnt[is_leaf] = tests
            lat[is_leaf] = costs.tri_test_latency + np.maximum(0, tests - 1)
            hit[is_leaf] = hit_any

        # The spill penalty applies to the post-push stack depth.
        spill = depth[act] > costs.stack_entries
        if spill.any():
            spills[act[spill]] += 1
            lat[spill] += costs.stack_spill_penalty
        emit(act, rec, cnt, lat, hit)
        if hit.any():
            length[act[hit]] = it + 1
            act = act[~hit]
        it += 1

    # Lay the records out per ray: iteration `it` of ray j is record
    # start[j] + it.
    start = np.cumsum(length) - length
    total = int(length.sum())
    planes = [np.empty(total, dtype=np.int32) for _ in range(3)]
    planes.append(np.empty(total, dtype=bool))
    if out:
        pos = start[np.concatenate([o[0] for o in out])]
        pos += np.repeat(steps, [len(o[0]) for o in out])
        for i, plane in enumerate(planes):
            plane[pos] = np.concatenate([o[i + 1] for o in out])
    return DFSTrace(
        planes=planes, start=start, length=length, linked=linked,
        hit_tri=hit_tri, verified=verified, node_fetches=node_fetches,
        tri_fetches=tri_fetches, spills=spills,
        mis_node_fetches=mis_node_fetches, mis_tri_fetches=mis_tri_fetches,
        guard_restarts=guard_restarts,
    )


def dfs_root_trace(bvh: FlatBVH, rays: RayBatch, costs: TraceCosts) -> DFSTrace:
    """Every ray's trace from a stack holding only the root.

    Launches of :data:`_ROOT_CHUNK` rays bound the kernels' temporaries;
    their records are concatenated in ray order.
    """
    n = len(rays)
    origins = np.asarray(rays.origins, dtype=np.float64)
    directions = np.asarray(rays.directions, dtype=np.float64)
    with np.errstate(divide="ignore"):
        inv_directions = 1.0 / directions
    t_min = np.asarray(rays.t_min, dtype=np.float64)
    t_max = np.asarray(rays.t_max, dtype=np.float64)
    # A DFS stack holds at most one pending sibling per level below
    # where it started, plus two fresh children.
    width = bvh.max_depth() + 2
    parts = []
    for a in range(0, max(n, 1), _ROOT_CHUNK):  # an empty batch: one launch
        b = min(n, a + _ROOT_CHUNK)
        parts.append(dfs_trace(
            bvh, origins[a:b], directions[a:b], inv_directions[a:b],
            t_min[a:b], t_max[a:b], np.zeros((b - a, width), dtype=np.int64),
            np.ones(b - a, dtype=np.int64), costs,
        ))
    if len(parts) == 1:
        return parts[0]
    sizes = [len(p.planes[0]) for p in parts]
    offsets = np.cumsum(sizes) - sizes
    fields = ("length", "linked", "hit_tri", "verified", "node_fetches",
              "tri_fetches", "spills")
    return DFSTrace(
        planes=[np.concatenate([p.planes[i] for p in parts]) for i in range(4)],
        start=np.concatenate([p.start + o for p, o in zip(parts, offsets)]),
        **{f: np.concatenate([getattr(p, f) for p in parts]) for f in fields},
    )


__all__ = [
    "DFSTrace",
    "FAULT",
    "MISS",
    "RESTART_SENTINEL",
    "TraceCosts",
    "dfs_root_trace",
    "dfs_trace",
    "index_runs",
]
