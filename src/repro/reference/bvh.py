"""The per-node BVH builders and refit walk, kept as differential oracles.

Production builds and refits trees level by level (:mod:`repro.bvh.vector`);
its trees are array-identical to these builders' and its refits
bit-identical to :func:`refit_bvh` (``tests/test_vector_build.py``,
``tests/test_refit_interframe.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import telemetry
from repro.bvh.nodes import FlatBVH
from repro.bvh.refit import _refit
from repro.geometry.aabb import aabb_surface_area
from repro.geometry.morton import morton_codes
from repro.geometry.triangle import TriangleMesh
from repro.telemetry.publish import publish_bvh


@dataclass
class _BuildArrays:
    """Mutable node arrays accumulated during construction."""

    lo: List[Tuple[float, float, float]]
    hi: List[Tuple[float, float, float]]
    left: List[int]
    right: List[int]
    first_tri: List[int]
    tri_count: List[int]
    parent: List[int]

    def add_node(self, lo, hi, parent) -> int:
        """Append a placeholder node and return its index."""
        self.lo.append(tuple(lo))
        self.hi.append(tuple(hi))
        self.left.append(-1)
        self.right.append(-1)
        self.first_tri.append(0)
        self.tri_count.append(0)
        self.parent.append(parent)
        return len(self.lo) - 1


class _TopDownBuilder:
    """Shared machinery for top-down builders.

    Subclasses implement :meth:`_choose_split`, returning the index at
    which the (already ordered) triangle id slice should be partitioned,
    or ``None`` to make a leaf.
    """

    def __init__(self, max_leaf_size: int = 4) -> None:
        if max_leaf_size < 1:
            raise ValueError("max_leaf_size must be >= 1")
        self.max_leaf_size = max_leaf_size

    def build(self, mesh: TriangleMesh) -> FlatBVH:
        """Build a :class:`FlatBVH` over ``mesh``."""
        n = len(mesh)
        if n == 0:
            raise ValueError("cannot build a BVH over an empty mesh")
        tri_lo, tri_hi = mesh.bounds()
        centroids = mesh.centroids()
        order = np.arange(n, dtype=np.int64)
        arrays = _BuildArrays([], [], [], [], [], [], [])

        # Each work item: (node index, start, end) over `order`.
        root = arrays.add_node(
            tri_lo.min(axis=0), tri_hi.max(axis=0), -1
        )
        stack = [(root, 0, n)]
        while stack:
            node, start, end = stack.pop()
            count = end - start
            ids = order[start:end]
            split = None
            if count > self.max_leaf_size:
                split = self._choose_split(ids, centroids, tri_lo, tri_hi, order, start, end)
            if split is None:
                arrays.first_tri[node] = start
                arrays.tri_count[node] = count
                continue
            mid = split
            left_ids = order[start:mid]
            right_ids = order[mid:end]
            left_node = arrays.add_node(
                tri_lo[left_ids].min(axis=0), tri_hi[left_ids].max(axis=0), node
            )
            right_node = arrays.add_node(
                tri_lo[right_ids].min(axis=0), tri_hi[right_ids].max(axis=0), node
            )
            arrays.left[node] = left_node
            arrays.right[node] = right_node
            stack.append((right_node, mid, end))
            stack.append((left_node, start, mid))

        reordered = TriangleMesh(mesh.v0[order], mesh.v1[order], mesh.v2[order])
        return FlatBVH(
            lo=np.asarray(arrays.lo),
            hi=np.asarray(arrays.hi),
            left=np.asarray(arrays.left),
            right=np.asarray(arrays.right),
            first_tri=np.asarray(arrays.first_tri),
            tri_count=np.asarray(arrays.tri_count),
            parent=np.asarray(arrays.parent),
            mesh=reordered,
            tri_indices=order,
        )

    def _choose_split(
        self,
        ids: np.ndarray,
        centroids: np.ndarray,
        tri_lo: np.ndarray,
        tri_hi: np.ndarray,
        order: np.ndarray,
        start: int,
        end: int,
    ):
        raise NotImplementedError


class MedianSplitBuilder(_TopDownBuilder):
    """Split at the centroid median of the longest centroid-extent axis."""

    def _choose_split(self, ids, centroids, tri_lo, tri_hi, order, start, end):
        cents = centroids[ids]
        extent = cents.max(axis=0) - cents.min(axis=0)
        axis = int(np.argmax(extent))
        if extent[axis] <= 0.0:
            # All centroids coincide: split the id list in half anyway so
            # degenerate clusters still terminate.
            mid = start + (end - start) // 2
            return mid if mid > start and mid < end else None
        local = np.argsort(cents[:, axis], kind="stable")
        order[start:end] = ids[local]
        mid = start + (end - start) // 2
        return mid


class BinnedSAHBuilder(_TopDownBuilder):
    """Greedy binned surface-area-heuristic builder.

    Evaluates ``num_bins`` candidate splits per axis using the standard
    SAH cost ``SA_L * N_L + SA_R * N_R`` and falls back to a median split
    when binning degenerates.  ``traversal_cost``/``intersect_cost`` steer
    the leaf-creation decision.
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

    def _choose_split(self, ids, centroids, tri_lo, tri_hi, order, start, end):
        cents = centroids[ids]
        c_lo = cents.min(axis=0)
        c_hi = cents.max(axis=0)
        extent = c_hi - c_lo

        best_cost = np.inf
        best_axis = -1
        best_bin = -1
        for axis in range(3):
            if extent[axis] <= 0.0:
                continue
            scale = self.num_bins / extent[axis]
            bins = np.minimum(
                ((cents[:, axis] - c_lo[axis]) * scale).astype(np.int64),
                self.num_bins - 1,
            )
            counts = np.bincount(bins, minlength=self.num_bins)
            # Accumulate bin bounds.
            bin_lo = np.full((self.num_bins, 3), np.inf)
            bin_hi = np.full((self.num_bins, 3), -np.inf)
            np.minimum.at(bin_lo, bins, tri_lo[ids])
            np.maximum.at(bin_hi, bins, tri_hi[ids])

            # Sweep left-to-right and right-to-left for prefix areas.
            left_counts = np.cumsum(counts)[:-1]
            right_counts = left_counts[-1] + counts[-1] - left_counts
            left_area = _prefix_areas(bin_lo, bin_hi)
            right_area = _prefix_areas(bin_lo[::-1], bin_hi[::-1])[::-1]
            with np.errstate(invalid="ignore"):
                cost = left_area[:-1] * left_counts + right_area[1:] * right_counts
            cost = np.where((left_counts == 0) | (right_counts == 0), np.inf, cost)
            idx = int(np.argmin(cost))
            if cost[idx] < best_cost:
                best_cost = cost[idx]
                best_axis = axis
                best_bin = idx

        count = end - start
        if best_axis < 0:
            # Binning degenerated (flat centroid cloud); force a median split.
            mid = start + count // 2
            return mid if count > self.max_leaf_size else None

        # Leaf test: compare split cost against testing all triangles here.
        parent_area = aabb_surface_area(tri_lo[ids].min(axis=0), tri_hi[ids].max(axis=0))
        if parent_area > 0.0:
            split_cost = self.traversal_cost + (
                self.intersect_cost * best_cost / parent_area
            )
            leaf_cost = self.intersect_cost * count
            if split_cost >= leaf_cost and count <= 2 * self.max_leaf_size:
                return None

        scale = self.num_bins / extent[best_axis]
        bins = np.minimum(
            ((cents[:, best_axis] - c_lo[best_axis]) * scale).astype(np.int64),
            self.num_bins - 1,
        )
        go_left = bins <= best_bin
        left_ids = ids[go_left]
        right_ids = ids[~go_left]
        if len(left_ids) == 0 or len(right_ids) == 0:
            mid = start + count // 2
            local = np.argsort(cents[:, best_axis], kind="stable")
            order[start:end] = ids[local]
            return mid
        order[start : start + len(left_ids)] = left_ids
        order[start + len(left_ids) : end] = right_ids
        return start + len(left_ids)


def _prefix_areas(bin_lo: np.ndarray, bin_hi: np.ndarray) -> np.ndarray:
    """Surface areas of the running unions of bins, front to back."""
    run_lo = np.minimum.accumulate(bin_lo, axis=0)
    run_hi = np.maximum.accumulate(bin_hi, axis=0)
    extent = run_hi - run_lo
    empty = np.any(extent < 0.0, axis=1)
    ex, ey, ez = extent[:, 0], extent[:, 1], extent[:, 2]
    area = 2.0 * (ex * ey + ey * ez + ez * ex)
    return np.where(empty, 0.0, area)



class LBVHBuilder(_TopDownBuilder):
    """Morton-code split builder."""

    def __init__(self, max_leaf_size: int = 4, bits: int = 10) -> None:
        super().__init__(max_leaf_size=max_leaf_size)
        self.bits = bits
        self._codes: np.ndarray | None = None

    def build(self, mesh: TriangleMesh):
        """Build: compute Morton codes, then run the top-down machinery."""
        lo, hi = mesh.bounds()
        self._codes = morton_codes(
            mesh.centroids(), lo.min(axis=0), hi.max(axis=0), bits=self.bits
        )
        return super().build(mesh)

    def _choose_split(self, ids, centroids, tri_lo, tri_hi, order, start, end):
        codes = self._codes[ids]
        local = np.argsort(codes, kind="stable")
        ids_sorted = ids[local]
        codes_sorted = codes[local]
        order[start:end] = ids_sorted

        first = int(codes_sorted[0])
        last = int(codes_sorted[-1])
        if first == last:
            # Identical codes: fall back to an object-median split.
            mid = start + (end - start) // 2
            return mid
        # Split where the highest differing bit flips.
        diff_bit = (first ^ last).bit_length() - 1
        mask = 1 << diff_bit
        prefix = first & ~((mask << 1) - 1)
        threshold = prefix | mask
        split_local = int(np.searchsorted(codes_sorted, threshold, side="left"))
        split = start + split_local
        if split <= start or split >= end:
            split = start + (end - start) // 2
        return split


def _refit_scalar(bvh: FlatBVH, tri_lo: np.ndarray, tri_hi: np.ndarray):
    """Reverse per-node reference loop (the differential oracle)."""
    lo = bvh.lo.copy()
    hi = bvh.hi.copy()
    # Children are always emitted after their parent, so a reverse pass
    # sees every node's children (or triangles) before the node itself.
    for node in range(bvh.num_nodes - 1, -1, -1):
        left = bvh.left[node]
        if left < 0:
            start = int(bvh.first_tri[node])
            stop = start + int(bvh.tri_count[node])
            lo[node] = tri_lo[start:stop].min(axis=0)
            hi[node] = tri_hi[start:stop].max(axis=0)
        else:
            right = bvh.right[node]
            lo[node] = np.minimum(lo[left], lo[right])
            hi[node] = np.maximum(hi[left], hi[right])
    return lo, hi


#: The per-node builder behind each :func:`build_bvh` method.
_BUILDERS = {"sah": BinnedSAHBuilder, "median": MedianSplitBuilder, "lbvh": LBVHBuilder}


def build_bvh(
    mesh: TriangleMesh, method: str = "sah", max_leaf_size: int = 4, **kwargs
) -> FlatBVH:
    """:func:`repro.bvh.build_bvh` on the per-node builders."""
    with telemetry.span(
        "bvh.build", method=method, engine="scalar", triangles=len(mesh)
    ) as sp:
        bvh = _BUILDERS[method](max_leaf_size=max_leaf_size, **kwargs).build(mesh)
        sp.add(nodes=bvh.num_nodes)
    publish_bvh(bvh, method=method)
    return bvh


def refit_bvh(bvh: FlatBVH, mesh: TriangleMesh) -> FlatBVH:
    """:func:`repro.bvh.refit_bvh` on the reverse per-node loop."""
    return _refit(bvh, mesh, _refit_scalar, engine="scalar")
