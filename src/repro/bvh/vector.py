"""Level-synchronous vectorized BVH construction.

The per-node builders in :mod:`repro.reference.bvh` process one node
per Python iteration; this module processes the *entire frontier* of open
nodes at one depth per pass, so the number of kernel launches is bounded
by tree depth rather than node count - the same ray-stream discipline
:mod:`repro.trace.wavefront` and :mod:`repro.gpu.vec_rt_unit` apply to
traversal and timing.

Per level, for all open segments of the shared triangle ``order`` array
at once:

* segment geometry (centroid/tri bounds) is gathered once and reduced
  with ``np.minimum.reduceat``/``np.maximum.reduceat`` at segment
  offsets;
* binned SAH evaluates every ``(segment, axis, bin)`` candidate with,
  per axis, one ``np.bincount`` over ``bin * k + segment`` cells, the
  scalar builder's own ``np.minimum.at``/``np.maximum.at`` fold for the
  bin bounds (one coordinate at a time, in triangle order) and a
  bin-by-bin prefix-union sweep over all ``k`` segments at once;
* partitioning is a single stable ``np.lexsort`` on
  ``(segment, go-right)`` keys (centroid or Morton keys for the
  median/LBVH paths), so each segment is permuted exactly as the scalar
  builder's per-node stable argsort would;
* children are emitted in BFS order and then renumbered to the scalar
  builders' DFS pre-order via interior-subtree counts, making the
  output :class:`~repro.bvh.nodes.FlatBVH` *array-identical* to the
  scalar oracle (topology, triangle order, and bit-for-bit bounds).

Every floating-point expression mirrors the scalar code exactly: min/max
reductions are exact, the SAH cost uses the same product/sum ordering,
and all sorts are stable, so equality is bitwise rather than
approximate.  The differential tests in ``tests/test_vector_build.py``
assert this on all seven scenes and under Hypothesis-generated meshes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.geometry.morton import morton_codes
from repro.geometry.triangle import TriangleMesh

def concat_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten ``[starts[i], ends[i])`` ranges into one gather index.

    Returns ``(positions, seg_of, counts, seg_offsets)`` where
    ``positions`` enumerates every index of every range segment-major,
    ``seg_of[j]`` is the segment owning ``positions[j]``, and
    ``seg_offsets[i]`` is where segment ``i`` begins in the flattened
    array (the offsets a ``reduceat`` over the gathered values wants).
    """
    counts = ends - starts
    total = int(counts.sum())
    seg_of = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    seg_offsets = np.zeros(starts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_offsets[1:])
    within = np.arange(total, dtype=np.int64) - seg_offsets[seg_of]
    positions = starts[seg_of] + within
    return positions, seg_of, counts, seg_offsets


def _segment_surface_areas(extent: np.ndarray) -> np.ndarray:
    """``aabb_surface_area`` for an ``(n, 3)`` extent array (non-empty)."""
    ex, ey, ez = extent[:, 0], extent[:, 1], extent[:, 2]
    return 2.0 * (ex * ey + ey * ez + ez * ex)


def _running_union_areas(bin_lo: np.ndarray,
                         bin_hi: np.ndarray) -> np.ndarray:
    """Surface areas of the running unions of bins, front to back.

    ``bin_lo``/``bin_hi`` are coordinate-major, ``(3, num_bins, k)``,
    and the union runs along axis 1.  Each step is the scalar
    ``_prefix_areas``'s ``accumulate`` step ``run[b] = min(run[b-1],
    bin[b])``, taken for all ``k`` segments at once.  Empty prefixes
    (all bins so far empty) come out as 0.0 exactly like the scalar
    ``_prefix_areas``.
    """
    run_lo = np.empty_like(bin_lo)
    run_hi = np.empty_like(bin_hi)
    run_lo[:, 0] = bin_lo[:, 0]
    run_hi[:, 0] = bin_hi[:, 0]
    for b in range(1, bin_lo.shape[1]):
        np.minimum(run_lo[:, b - 1], bin_lo[:, b], out=run_lo[:, b])
        np.maximum(run_hi[:, b - 1], bin_hi[:, b], out=run_hi[:, b])
    ex, ey, ez = np.subtract(run_hi, run_lo, out=run_hi)
    empty = (ex < 0.0) | (ey < 0.0) | (ez < 0.0)
    area = 2.0 * (ex * ey + ey * ez + ez * ex)
    return np.where(empty, 0.0, area)


def _high_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit per element (``x`` uint64, > 0).

    Branch-free shift ladder; entries that are 0 return 0 (callers mask
    them out).  Exact for the full 63-bit Morton range - a float ``log2``
    would misplace bits above 2**52.
    """
    out = np.zeros(x.shape, dtype=np.uint64)
    v = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        s = np.uint64(shift)
        big = v >= (np.uint64(1) << s)
        out[big] += s
        v[big] >>= s
    return out


class _LevelPlan:
    """One level's split decisions for every candidate segment.

    ``keys`` is the per-triangle stable-sort key (constant within a
    segment means "do not reorder"); ``leaf`` marks candidate segments
    that become leaves anyway (SAH cost says stop); ``split_abs`` is the
    absolute partition index into ``order`` for segments that do split.
    """

    __slots__ = ("keys", "leaf", "split_abs")

    def __init__(self, keys: np.ndarray, leaf: np.ndarray,
                 split_abs: np.ndarray) -> None:
        self.keys = keys
        self.leaf = leaf
        self.split_abs = split_abs


class _VectorFrontierBuilder:
    """Shared level-synchronous machinery for the vector builders.

    Subclasses implement :meth:`_plan_level`, which decides - for the
    whole frontier at once - which candidate segments become leaves,
    where the rest split, and what key orders their triangles.
    """

    def __init__(self, max_leaf_size: int = 4) -> None:
        if max_leaf_size < 1:
            raise ValueError("max_leaf_size must be >= 1")
        self.max_leaf_size = max_leaf_size
        #: Frontier passes executed by the last :meth:`build` call
        #: (== max tree depth + 1); feeds the ``bvh.build_levels``
        #: telemetry counter.
        self.levels_built = 0

    def build(self, mesh: TriangleMesh) -> FlatBVH:
        """Build a :class:`FlatBVH` over ``mesh``, one level per pass."""
        n = len(mesh)
        if n == 0:
            raise ValueError("cannot build a BVH over an empty mesh")
        tri_lo, tri_hi = mesh.bounds()
        cents = mesh.centroids()
        order = np.arange(n, dtype=np.int64)
        self._prepare(mesh, tri_lo, tri_hi)

        # BFS node arrays accumulate as per-level chunks; within a level
        # children appear in frontier order, so concatenation order ==
        # BFS id order.
        lo_chunks = [tri_lo.min(axis=0)[None, :]]
        hi_chunks = [tri_hi.max(axis=0)[None, :]]
        parent_chunks = [np.full(1, -1, dtype=np.int64)]
        level_chunks = [np.zeros(1, dtype=np.int64)]
        left_chunks, right_chunks = [], []
        first_chunks, count_chunks = [], []

        starts = np.zeros(1, dtype=np.int64)
        ends = np.full(1, n, dtype=np.int64)
        bfs_ids = np.zeros(1, dtype=np.int64)
        total_nodes = 1
        self.levels_built = 0

        while starts.size:
            self.levels_built += 1
            k = starts.size
            counts = ends - starts
            leaf = counts <= self.max_leaf_size
            cand = np.nonzero(~leaf)[0]
            split_abs = np.zeros(k, dtype=np.int64)
            if cand.size:
                pos, seg, _, seg_off = concat_ranges(starts[cand], ends[cand])
                ids = order[pos]
                plan = self._plan_level(
                    ids, cents, tri_lo, tri_hi, seg, seg_off,
                    starts[cand], counts[cand],
                )
                # Segments the plan turned into leaves must not reorder:
                # zero their keys so the stable sort is the identity.
                keys = plan.keys
                leaf_tris = plan.leaf[seg]
                if leaf_tris.any():
                    keys = keys.copy()
                    keys[leaf_tris] = 0
                # One stable sort partitions/permutes every splitting
                # segment exactly as the scalar per-node argsort would.
                perm = np.lexsort((keys, seg))
                order[pos] = ids[perm]
                leaf[cand[plan.leaf]] = True
                split_abs[cand] = plan.split_abs

            split_rows = np.nonzero(~leaf)[0]
            s = split_rows.size

            first_chunk = np.where(leaf, starts, 0)
            count_chunk = np.where(leaf, counts, 0)
            left_chunk = np.full(k, -1, dtype=np.int64)
            right_chunk = np.full(k, -1, dtype=np.int64)
            if s:
                left_ids = total_nodes + 2 * np.arange(s, dtype=np.int64)
                left_chunk[split_rows] = left_ids
                right_chunk[split_rows] = left_ids + 1
            first_chunks.append(first_chunk)
            count_chunks.append(count_chunk)
            left_chunks.append(left_chunk)
            right_chunks.append(right_chunk)

            if not s:
                break

            # Emit children: bounds from one gather + segmented
            # reduction over the freshly permuted order.
            s_starts = starts[split_rows]
            s_ends = ends[split_rows]
            s_mids = split_abs[split_rows]
            pos2, _, s_counts, seg_off2 = concat_ranges(s_starts, s_ends)
            ids2 = order[pos2]
            mids_rel = s_mids - s_starts
            child_off = np.stack(
                (seg_off2, seg_off2 + mids_rel), axis=1
            ).reshape(-1)
            child_lo = np.minimum.reduceat(
                np.take(tri_lo, ids2, axis=0), child_off, axis=0
            )
            child_hi = np.maximum.reduceat(
                np.take(tri_hi, ids2, axis=0), child_off, axis=0
            )

            lo_chunks.append(child_lo)
            hi_chunks.append(child_hi)
            parent_chunks.append(np.repeat(bfs_ids[split_rows], 2))
            level_chunks.append(
                np.full(2 * s, self.levels_built, dtype=np.int64)
            )

            starts = np.stack((s_starts, s_mids), axis=1).reshape(-1)
            ends = np.stack((s_mids, s_ends), axis=1).reshape(-1)
            bfs_ids = total_nodes + np.arange(2 * s, dtype=np.int64)
            total_nodes += 2 * s

        lo = np.concatenate(lo_chunks, axis=0)
        hi = np.concatenate(hi_chunks, axis=0)
        parent = np.concatenate(parent_chunks)
        level = np.concatenate(level_chunks)
        left = np.concatenate(left_chunks)
        right = np.concatenate(right_chunks)
        first_tri = np.concatenate(first_chunks)
        tri_count = np.concatenate(count_chunks)

        new_idx = _dfs_preorder_renumber(left, right, level)
        inv = np.empty(total_nodes, dtype=np.int64)
        inv[new_idx] = np.arange(total_nodes, dtype=np.int64)

        old_left = left[inv]
        old_right = right[inv]
        old_parent = parent[inv]
        left_f = np.where(
            old_left >= 0, new_idx[np.maximum(old_left, 0)], -1
        )
        right_f = np.where(
            old_right >= 0, new_idx[np.maximum(old_right, 0)], -1
        )
        parent_f = np.where(
            old_parent >= 0, new_idx[np.maximum(old_parent, 0)], -1
        )

        reordered = TriangleMesh(
            np.take(mesh.v0, order, axis=0),
            np.take(mesh.v1, order, axis=0),
            np.take(mesh.v2, order, axis=0),
        )
        return FlatBVH(
            lo=lo[inv],
            hi=hi[inv],
            left=left_f,
            right=right_f,
            first_tri=first_tri[inv],
            tri_count=tri_count[inv],
            parent=parent_f,
            mesh=reordered,
            tri_indices=order,
        )

    # ------------------------------------------------------------------
    def _prepare(self, mesh: TriangleMesh, tri_lo: np.ndarray,
                 tri_hi: np.ndarray) -> None:
        """Per-build precomputation hook (LBVH computes Morton codes)."""

    def _plan_level(self, ids, cents, tri_lo, tri_hi, seg, seg_off,
                    starts, counts) -> _LevelPlan:
        raise NotImplementedError


def _dfs_preorder_renumber(left: np.ndarray, right: np.ndarray,
                           level: np.ndarray) -> np.ndarray:
    """Map BFS node ids to the scalar builders' DFS pre-order numbering.

    The scalar ``_TopDownBuilder`` pops work left-first, allocating the
    child pair of the ``k``-th interior node it pops (DFS pre-order) at
    indices ``2k+1``/``2k+2``.  Reproduce that with two level passes:
    a bottom-up pass counts interior nodes per subtree, a top-down pass
    propagates each interior node's pre-order rank
    (``rank(l) = rank(v) + 1``,
    ``rank(r) = rank(v) + 1 + interior_count(l)``), and children then
    renumber directly off their parent's rank.
    """
    n = left.size
    new_idx = np.zeros(n, dtype=np.int64)
    if n == 1:
        return new_idx
    interior = left >= 0
    by_level = np.argsort(level, kind="stable")
    level_counts = np.bincount(level)
    level_ends = np.cumsum(level_counts)
    max_level = level_counts.size - 1

    icount = np.zeros(n, dtype=np.int64)
    rank = np.zeros(n, dtype=np.int64)
    for d in range(max_level, -1, -1):
        nodes = by_level[level_ends[d] - level_counts[d]:level_ends[d]]
        ints = nodes[interior[nodes]]
        if ints.size:
            icount[ints] = 1 + icount[left[ints]] + icount[right[ints]]
    for d in range(max_level):
        nodes = by_level[level_ends[d] - level_counts[d]:level_ends[d]]
        ints = nodes[interior[nodes]]
        if ints.size:
            le = left[ints]
            ri = right[ints]
            rank[le] = rank[ints] + 1
            rank[ri] = rank[ints] + 1 + icount[le]
            new_idx[le] = 2 * rank[ints] + 1
            new_idx[ri] = 2 * rank[ints] + 2
    return new_idx


class VectorMedianSplitBuilder(_VectorFrontierBuilder):
    """Level-synchronous twin of :class:`~repro.reference.bvh.MedianSplitBuilder`."""

    def _plan_level(self, ids, cents, tri_lo, tri_hi, seg, seg_off,
                    starts, counts):
        c = np.take(cents, ids, axis=0)
        c_lo = np.minimum.reduceat(c, seg_off, axis=0)
        c_hi = np.maximum.reduceat(c, seg_off, axis=0)
        extent = c_hi - c_lo
        k = starts.size
        axis = np.argmax(extent, axis=1)
        spread = extent[np.arange(k), axis] > 0.0
        keys = np.zeros(ids.size, dtype=np.float64)
        live = spread[seg]
        # Degenerate segments (coincident centroids) keep their order
        # and still split at the median, exactly like the scalar path.
        keys[live] = c[live, axis[seg[live]]]
        leaf = np.zeros(k, dtype=bool)
        split_abs = starts + counts // 2
        return _LevelPlan(keys, leaf, split_abs)


class VectorBinnedSAHBuilder(_VectorFrontierBuilder):
    """Level-synchronous twin of :class:`~repro.reference.bvh.BinnedSAHBuilder`.

    Evaluates every ``(segment, axis, bin)`` split candidate of the
    frontier in one cost tensor; the flat C-order ``argmin`` reproduces
    the scalar cross-axis strict-``<`` tie-breaking exactly.
    """

    def __init__(
        self,
        max_leaf_size: int = 4,
        num_bins: int = 16,
        traversal_cost: float = 1.0,
        intersect_cost: float = 1.0,
    ) -> None:
        super().__init__(max_leaf_size=max_leaf_size)
        if num_bins < 2:
            raise ValueError("num_bins must be >= 2")
        self.num_bins = num_bins
        self.traversal_cost = traversal_cost
        self.intersect_cost = intersect_cost

    def _plan_level(self, ids, cents, tri_lo, tri_hi, seg, seg_off,
                    starts, counts):
        nb = self.num_bins
        k = starts.size
        t = ids.size
        # np.take gathers (t, 3) rows several times faster than fancy
        # indexing does.
        c = np.take(cents, ids, axis=0)
        tl = np.take(tri_lo, ids, axis=0)
        th = np.take(tri_hi, ids, axis=0)
        c_lo = np.minimum.reduceat(c, seg_off, axis=0)
        c_hi = np.maximum.reduceat(c, seg_off, axis=0)
        extent = c_hi - c_lo

        # Bin every centroid on all three axes; a flat axis (zero
        # centroid extent) puts everything in bin 0 and is masked below.
        live = extent > 0.0
        scale = np.zeros((k, 3))
        scale[live] = nb / extent[live]
        bins = np.minimum(
            ((c - np.take(c_lo, seg, axis=0))
             * np.take(scale, seg, axis=0)).astype(np.int64),
            nb - 1,
        )

        cost = np.full((k, 3, nb - 1), np.inf)
        for axis in range(3):
            # One cell per (bin, segment), bin-major so the running
            # unions sweep whole segment rows.
            cell = bins[:, axis] * k + seg
            bin_counts = np.bincount(cell, minlength=nb * k).reshape(nb, k)
            # Bin bounds: the scalar builder's own np.minimum.at /
            # np.maximum.at fold, one coordinate at a time, so every
            # cell folds its triangles in triangle order.  Absent bins
            # keep the +/-inf identities.
            bin_lo = np.full((3, nb, k), np.inf)
            bin_hi = np.full((3, nb, k), -np.inf)
            for d in range(3):
                np.minimum.at(bin_lo[d].reshape(-1), cell, tl[:, d])
                np.maximum.at(bin_hi[d].reshape(-1), cell, th[:, d])

            left_counts = np.cumsum(bin_counts, axis=0)[:-1]
            right_counts = counts - left_counts
            left_area = _running_union_areas(bin_lo, bin_hi)
            right_area = _running_union_areas(
                bin_lo[:, ::-1], bin_hi[:, ::-1]
            )[::-1]
            with np.errstate(invalid="ignore"):
                axis_cost = (
                    left_area[:-1] * left_counts
                    + right_area[1:] * right_counts
                )
            axis_cost = np.where(
                (left_counts == 0) | (right_counts == 0), np.inf, axis_cost
            )
            axis_cost[:, ~live[:, axis]] = np.inf
            cost[:, axis, :] = axis_cost.T

        flat_cost = cost.reshape(k, -1)
        best_flat = np.argmin(flat_cost, axis=1)
        best_cost = flat_cost[np.arange(k), best_flat]
        has_split = np.isfinite(best_cost)
        best_axis = best_flat // (nb - 1)
        best_bin = best_flat % (nb - 1)

        # Leaf test against the cost of intersecting everything here.
        p_lo = np.minimum.reduceat(tl, seg_off, axis=0)
        p_hi = np.maximum.reduceat(th, seg_off, axis=0)
        parent_area = _segment_surface_areas(p_hi - p_lo)
        leaf = np.zeros(k, dtype=bool)
        measurable = has_split & (parent_area > 0.0)
        if measurable.any():
            split_cost = self.traversal_cost + (
                self.intersect_cost * best_cost[measurable]
                / parent_area[measurable]
            )
            leaf_cost = self.intersect_cost * counts[measurable]
            leaf[measurable] = (split_cost >= leaf_cost) & (
                counts[measurable] <= 2 * self.max_leaf_size
            )

        bins_best = bins[np.arange(t), best_axis[seg]]
        go_left = bins_best <= best_bin[seg]
        n_left = np.bincount(seg[go_left], minlength=k)
        splitting = has_split & ~leaf
        one_sided = splitting & ((n_left == 0) | (n_left == counts))
        binned = splitting & ~one_sided

        keys = np.zeros(t, dtype=np.float64)
        on_binned = binned[seg]
        keys[on_binned] = (~go_left[on_binned]).astype(np.float64)
        on_sided = one_sided[seg]
        # Every candidate landed in one bin: fall back to the scalar
        # path's stable centroid sort + median split.
        keys[on_sided] = c[on_sided, best_axis[seg[on_sided]]]
        # ~has_split (flat centroid cloud): keys stay 0 -> no reorder,
        # forced median split, again matching the scalar fallback.

        mid = starts + counts // 2
        split_abs = np.where(binned, starts + n_left, mid)
        return _LevelPlan(keys, leaf, split_abs)


class VectorLBVHBuilder(_VectorFrontierBuilder):
    """Level-synchronous twin of :class:`~repro.reference.bvh.LBVHBuilder`.

    Keys every segment by raw uint64 Morton codes (never cast to float:
    codes reach ``3 * bits`` bits and would lose exactness past 2**52)
    and finds each segment's highest differing bit with a shift ladder.
    """

    def __init__(self, max_leaf_size: int = 4, bits: int = 10) -> None:
        super().__init__(max_leaf_size=max_leaf_size)
        self.bits = bits
        self._codes: np.ndarray | None = None

    def _prepare(self, mesh: TriangleMesh, tri_lo: np.ndarray,
                 tri_hi: np.ndarray) -> None:
        self._codes = morton_codes(
            mesh.centroids(), tri_lo.min(axis=0), tri_hi.max(axis=0),
            bits=self.bits,
        )

    def _plan_level(self, ids, cents, tri_lo, tri_hi, seg, seg_off,
                    starts, counts):
        codes = self._codes[ids]
        k = starts.size
        first = np.minimum.reduceat(codes, seg_off)
        last = np.maximum.reduceat(codes, seg_off)
        distinct = first != last

        diff_bit = _high_bit(first ^ last)
        mask = np.uint64(1) << diff_bit
        one = np.uint64(1)
        prefix = first & ~((mask << one) - one)
        threshold = prefix | mask
        below = codes < threshold[seg]
        n_below = np.bincount(seg[below], minlength=k)

        mid = starts + counts // 2
        split_abs = np.where(distinct, starts + n_below, mid)
        # A split falling on a segment edge (possible when one code
        # dominates) degrades to the object median, like the scalar
        # clamp.
        edge = (split_abs <= starts) | (split_abs >= starts + counts)
        split_abs = np.where(edge, mid, split_abs)
        leaf = np.zeros(k, dtype=bool)
        return _LevelPlan(codes, leaf, split_abs)


def trees_identical(a, b) -> bool:
    """True iff two :class:`~repro.bvh.nodes.FlatBVH` trees are
    array-identical - every node array, the reordered mesh, and the
    triangle permutation.  This is the contract between the frontier
    builders and their :mod:`repro.reference` twins that the
    differential suite and the ``bvh_build`` benchmark gate check.
    """
    return (
        np.array_equal(a.lo, b.lo)
        and np.array_equal(a.hi, b.hi)
        and np.array_equal(a.left, b.left)
        and np.array_equal(a.right, b.right)
        and np.array_equal(a.first_tri, b.first_tri)
        and np.array_equal(a.tri_count, b.tri_count)
        and np.array_equal(a.parent, b.parent)
        and np.array_equal(a.tri_indices, b.tri_indices)
        and np.array_equal(a.mesh.v0, b.mesh.v0)
        and np.array_equal(a.mesh.v1, b.mesh.v1)
        and np.array_equal(a.mesh.v2, b.mesh.v2)
    )


__all__ = [
    "VectorBinnedSAHBuilder",
    "VectorLBVHBuilder",
    "VectorMedianSplitBuilder",
    "concat_ranges",
    "trees_identical",
]
