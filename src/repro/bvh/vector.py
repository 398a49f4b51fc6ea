"""Level-synchronous vectorized BVH construction.

The per-node builders in :mod:`repro.reference.bvh` process one node
per Python iteration; this module processes the *entire frontier* of open
nodes at one depth per pass, so the number of kernel launches is bounded
by tree depth rather than node count - the same ray-stream discipline
:mod:`repro.trace.wavefront` and :mod:`repro.gpu.vec_rt_unit` apply to
traversal and timing.

The open segments' triangles travel with the frontier: one
coordinate-major ``(9, t)`` block, rows ``[tri_lo xyz | centroid xyz |
tri_hi xyz]``, plus the triangle ids, holds every triangle of every
segment still to be split, segment after segment in frontier order.  It
is filled once from the mesh, and per level, for all open segments at
once:

* the planner reads the block's rows directly.  Binned SAH evaluates
  every ``(segment, axis, bin)`` candidate with, per axis, one
  ``np.bincount`` over ``bin * k + segment`` cells, the scalar builder's
  own ``np.minimum.at``/``np.maximum.at`` fold for the bin bounds (one
  coordinate at a time, in triangle order) and a bin-by-bin
  prefix-union sweep over all ``k`` segments at once;
* each planner returns its level's permutation of the block.  A binned
  SAH segment is partitioned by counting: its left rows first, then its
  right rows, each side in row order, with no sort.  Median and LBVH
  segments keep a stable sort on their centroid or Morton keys;
* one ``np.minimum.reduceat`` over rows 0-5 and one
  ``np.maximum.reduceat`` over rows 3-8 of the permuted block, at the
  child offsets, give every child's node bounds and the next level's
  centroid bounds; the rows of children that are leaves then leave the
  block, and their ids are written to the triangle ``order``;
* children are emitted in BFS order and then renumbered to the scalar
  builders' DFS pre-order via interior-subtree counts, making the
  output :class:`~repro.bvh.nodes.FlatBVH` *array-identical* to the
  scalar oracle (topology, triangle order, and bounds).

Every floating-point expression mirrors the scalar code exactly: min/max
reductions are exact, the SAH cost uses the same product/sum ordering,
and every partition is stable, so bounds and costs equal the oracle's
exactly rather than approximately.  One difference stays below
equality: ``+0.0 == -0.0``, and a ``reduceat`` along a contiguous row
folds in another order than the oracle's ``.min(axis=0)``, so a node
whose extreme coordinate is reached by both zeros may store the other
one.  Bounds only ever reach comparisons, so no traversal result can
tell.  The differential tests in ``tests/test_vector_build.py`` assert
equality on all seven scenes and under Hypothesis-generated meshes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.geometry.morton import morton_codes
from repro.geometry.triangle import TriangleMesh


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each of ``counts``' segments begins."""
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


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
    seg_offsets = _segment_starts(counts)
    within = np.arange(total, dtype=np.int64) - seg_offsets[seg_of]
    positions = starts[seg_of] + within
    return positions, seg_of, counts, seg_offsets


def _surface_areas(extent: np.ndarray) -> np.ndarray:
    """``aabb_surface_area`` for a coordinate-major ``(3, ...)`` extent.

    An empty box (extent ``-inf`` on every axis) comes out ``+inf``.
    """
    ex, ey, ez = extent
    return 2.0 * (ex * ey + ey * ez + ez * ex)


def _running_union_areas(bin_lo: np.ndarray,
                         bin_hi: np.ndarray) -> np.ndarray:
    """Surface areas of the running unions of bins, front to back.

    ``bin_lo``/``bin_hi`` are coordinate-major, ``(3, num_bins, k)``,
    and the union runs along axis 1.  Each step is the scalar
    ``_prefix_areas``'s ``accumulate`` step ``run[b] = min(run[b-1],
    bin[b])``, taken for all ``k`` segments at once.  An empty prefix
    (all bins so far empty) comes out ``+inf`` where the scalar one is
    0.0; it only feeds costs whose count is 0, which the caller sets to
    ``inf`` either way.
    """
    run_lo = np.empty_like(bin_lo)
    run_hi = np.empty_like(bin_hi)
    run_lo[:, 0] = bin_lo[:, 0]
    run_hi[:, 0] = bin_hi[:, 0]
    for b in range(1, bin_lo.shape[1]):
        np.minimum(run_lo[:, b - 1], bin_lo[:, b], out=run_lo[:, b])
        np.maximum(run_hi[:, b - 1], bin_hi[:, b], out=run_hi[:, b])
    return _surface_areas(np.subtract(run_hi, run_lo, out=run_hi))


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


class _LevelPlan(NamedTuple):
    """One level's split decisions for every candidate segment.

    ``perm`` reorders the level's block columns (``None``: keep the
    order); it must leave the rows of ``leaf`` segments in place.
    ``leaf`` marks candidate segments that become leaves anyway (SAH
    cost says stop); ``split`` is, for the others, the number of rows
    that go to the left child.
    """

    perm: Optional[np.ndarray]
    leaf: np.ndarray
    split: np.ndarray


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a[0], b[0], a[1], b[1], ...]``: one (left, right) pair per row."""
    return np.stack((a, b), axis=1).reshape(-1)


class _VectorFrontierBuilder:
    """Shared level-synchronous machinery for the vector builders.

    Subclasses implement :meth:`_plan_level`, which decides - for the
    whole frontier at once - which candidate segments become leaves,
    where the rest split, and how their rows are permuted.
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
        max_leaf = self.max_leaf_size
        # The frontier block, filled row by row; the root's node and
        # centroid bounds come from the mesh-order arrays before they go.
        block = np.empty((9, n))
        tri_lo, tri_hi = mesh.bounds()
        root_lo = tri_lo.min(axis=0)
        root_hi = tri_hi.max(axis=0)
        block[0:3] = tri_lo.T
        block[6:9] = tri_hi.T
        del tri_lo, tri_hi
        cents = mesh.centroids()
        # Per candidate segment: lo6 = [node lo | centroid lo] and
        # hi6 = [centroid hi | node hi], coordinate-major like the block.
        lo6 = np.concatenate((root_lo, cents.min(axis=0)))[:, None]
        hi6 = np.concatenate((cents.max(axis=0), root_hi))[:, None]
        block[3:6] = cents.T
        self._prepare(cents, root_lo, root_hi)
        del cents
        ids = np.arange(n, dtype=np.int64)
        order = np.arange(n, dtype=np.int64)

        # BFS node arrays accumulate as per-level chunks; within a level
        # children appear in frontier order, so concatenation order ==
        # BFS id order.
        lo_chunks = [root_lo[None, :]]
        hi_chunks = [root_hi[None, :]]
        parent_chunks = [np.full(1, -1, dtype=np.int64)]
        level_chunks = [np.zeros(1, dtype=np.int64)]
        left_chunks, right_chunks = [], []
        first_chunks, count_chunks = [], []

        starts = np.zeros(1, dtype=np.int64)
        counts = np.full(1, n, dtype=np.int64)
        bfs_ids = np.zeros(1, dtype=np.int64)
        total_nodes = 1
        self.levels_built = 0

        while starts.size:
            self.levels_built += 1
            k = starts.size
            # The block holds exactly the rows of the candidates, in
            # frontier order.
            leaf = counts <= max_leaf
            cand = np.flatnonzero(~leaf)
            split = np.zeros(k, dtype=np.int64)
            if cand.size:
                c_counts = counts[cand]
                seg_off = _segment_starts(c_counts)
                seg = np.repeat(
                    np.arange(cand.size, dtype=np.int64), c_counts
                )
                plan = self._plan_level(
                    block, ids, seg, seg_off, c_counts, lo6, hi6
                )
                if plan.perm is not None:
                    block = np.take(block, plan.perm, axis=1)
                    ids = np.take(ids, plan.perm)
                c_split = np.where(plan.leaf, 0, plan.split)
                leaf[cand[plan.leaf]] = True
                split[cand] = c_split

                # One (left, right) piece per candidate; a leaf
                # candidate's rows all fall in its right piece.
                piece_off = _pairs(seg_off, seg_off + c_split)
                lo6 = np.minimum.reduceat(block[0:6], piece_off, axis=1)
                hi6 = np.maximum.reduceat(block[3:9], piece_off, axis=1)
                piece_counts = _pairs(c_split, c_counts - c_split)
                splits = np.repeat(~plan.leaf, 2)
                child_lo = lo6[0:3, splits].T
                child_hi = hi6[3:6, splits].T
                # Rows of the next level's candidates stay; the rest are
                # in their final place and retire into `order`.
                keep = splits & (piece_counts > max_leaf)
                rows_kept = np.repeat(keep, piece_counts)
                gone = ~keep
                c_starts = starts[cand]
                piece_starts = _pairs(c_starts, c_starts + c_split)[gone]
                pos = concat_ranges(
                    piece_starts, piece_starts + piece_counts[gone]
                )[0]
                order[pos] = ids[~rows_kept]
                block = np.compress(rows_kept, block, axis=1)
                ids = ids[rows_kept]
                lo6 = lo6[:, keep]
                hi6 = hi6[:, keep]

            split_rows = np.flatnonzero(~leaf)
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

            lo_chunks.append(child_lo)
            hi_chunks.append(child_hi)
            parent_chunks.append(np.repeat(bfs_ids[split_rows], 2))
            level_chunks.append(
                np.full(2 * s, self.levels_built, dtype=np.int64)
            )

            s_starts = starts[split_rows]
            s_counts = counts[split_rows]
            s_split = split[split_rows]
            starts = _pairs(s_starts, s_starts + s_split)
            counts = _pairs(s_split, s_counts - s_split)
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
    def _prepare(self, cents: np.ndarray, root_lo: np.ndarray,
                 root_hi: np.ndarray) -> None:
        """Per-build precomputation hook (LBVH computes Morton codes)."""

    def _plan_level(self, block, ids, seg, seg_off, counts, lo6,
                    hi6) -> _LevelPlan:
        """Plan one level: ``block``/``ids`` hold the candidates' rows,
        ``seg[j]`` owns row ``j``, segment ``i`` spans ``counts[i]`` rows
        from ``seg_off[i]``, and ``lo6``/``hi6`` are its bounds."""
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

    def _plan_level(self, block, ids, seg, seg_off, counts, lo6, hi6):
        extent = hi6[0:3] - lo6[3:6]
        k = counts.size
        axis = np.argmax(extent, axis=0)
        spread = extent[axis, np.arange(k)] > 0.0
        keys = np.zeros(ids.size, dtype=np.float64)
        live = np.flatnonzero(np.repeat(spread, counts))
        # Degenerate segments (coincident centroids) keep their order
        # and still split at the median, exactly like the scalar path.
        keys[live] = block[3 + axis[seg[live]], live]
        perm = np.lexsort((keys, seg))
        return _LevelPlan(perm, np.zeros(k, dtype=bool), counts // 2)


class VectorBinnedSAHBuilder(_VectorFrontierBuilder):
    """Level-synchronous twin of :class:`~repro.reference.bvh.BinnedSAHBuilder`.

    Evaluates every ``(segment, axis, bin)`` split candidate of the
    frontier in one cost tensor; the first-minimum ``argmin`` over its
    ``(axis, bin)`` rows reproduces the scalar cross-axis strict-``<``
    tie-breaking exactly.
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

    def _plan_level(self, block, ids, seg, seg_off, counts, lo6, hi6):
        nb = self.num_bins
        k = counts.size
        t = ids.size
        c_lo = lo6[3:6]
        extent = hi6[0:3] - c_lo

        # Bin every centroid on all three axes; a flat axis (zero
        # centroid extent) puts everything in bin 0 and is masked below.
        live = extent > 0.0
        scale = np.zeros((3, k))
        np.divide(nb, extent, out=scale, where=live)
        rel = np.repeat(c_lo, counts, axis=1)
        np.subtract(block[3:6], rel, out=rel)
        rel *= np.repeat(scale, counts, axis=1)
        bins = rel.astype(np.int64)
        np.minimum(bins, nb - 1, out=bins)
        del rel

        cost = np.empty((3, nb - 1, k))
        left_counts = np.empty((3, nb - 1, k), dtype=np.int64)
        for axis in range(3):
            # One cell per (bin, segment), bin-major so the running
            # unions sweep whole segment rows.
            cell = bins[axis] * k + seg
            bin_counts = np.bincount(cell, minlength=nb * k).reshape(nb, k)
            # Bin bounds: the scalar builder's own np.minimum.at /
            # np.maximum.at fold, one coordinate at a time, so every
            # cell folds its triangles in triangle order.  Absent bins
            # keep the +/-inf identities.
            bin_lo = np.full((3, nb, k), np.inf)
            bin_hi = np.full((3, nb, k), -np.inf)
            for d in range(3):
                np.minimum.at(bin_lo[d].reshape(-1), cell, block[d])
                np.maximum.at(bin_hi[d].reshape(-1), cell, block[6 + d])

            lefts = np.cumsum(bin_counts, axis=0)[:-1]
            rights = counts - lefts
            left_area = _running_union_areas(bin_lo, bin_hi)
            right_area = _running_union_areas(
                bin_lo[:, ::-1], bin_hi[:, ::-1]
            )[::-1]
            with np.errstate(invalid="ignore"):
                axis_cost = left_area[:-1] * lefts + right_area[1:] * rights
            axis_cost[(lefts == 0) | (rights == 0)] = np.inf
            axis_cost[:, ~live[axis]] = np.inf
            cost[axis] = axis_cost
            left_counts[axis] = lefts

        best = np.argmin(cost.reshape(-1, k), axis=0)
        best_axis = best // (nb - 1)
        best_bin = best % (nb - 1)
        segs = np.arange(k)
        best_cost = cost[best_axis, best_bin, segs]
        has_split = np.isfinite(best_cost)

        # Leaf test against the cost of intersecting everything here.
        parent_area = _surface_areas(hi6[3:6] - lo6[0:3])
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

        # No one-sided fallback: a finite cost has both sides non-empty.
        binned = has_split & ~leaf
        n_left = left_counts[best_axis, best_bin, segs]
        # ~has_split (flat centroid cloud): no reorder, forced median
        # split, matching the scalar fallback.
        split = np.where(binned, n_left, counts // 2)
        if not binned.any():
            return _LevelPlan(None, leaf, split)

        # Partition by counting: in a binned segment the left rows go
        # first and the right rows after, each side in row order; every
        # other segment counts all its rows as left and stays in place.
        # A flat take of each row's best-axis bin is several times
        # faster than a 2-D fancy index.
        go_left = np.take(
            bins, np.repeat(best_axis * t, counts) + np.arange(t)
        ) <= np.repeat(best_bin, counts)
        go_left |= np.repeat(~binned, counts)
        left_slot = np.arange(t) < np.repeat(
            seg_off + np.where(binned, n_left, counts), counts
        )
        perm = np.empty(t, dtype=np.int64)
        perm[left_slot] = np.flatnonzero(go_left)
        perm[~left_slot] = np.flatnonzero(~go_left)
        return _LevelPlan(perm, leaf, split)


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

    def _prepare(self, cents: np.ndarray, root_lo: np.ndarray,
                 root_hi: np.ndarray) -> None:
        self._codes = morton_codes(cents, root_lo, root_hi, bits=self.bits)

    def _plan_level(self, block, ids, seg, seg_off, counts, lo6, hi6):
        codes = np.take(self._codes, ids)
        k = counts.size
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

        mid = counts // 2
        split = np.where(distinct, n_below, mid)
        # A split falling on a segment edge (possible when one code
        # dominates) degrades to the object median, like the scalar
        # clamp.
        split = np.where((split <= 0) | (split >= counts), mid, split)
        perm = np.lexsort((codes, seg))
        return _LevelPlan(perm, np.zeros(k, dtype=bool), split)


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
