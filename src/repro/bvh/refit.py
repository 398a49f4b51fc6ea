"""BVH refitting for dynamic scenes.

The paper's conclusion names dynamic scenes and animation as the
compelling next step for ray prediction: the predictor table stores node
*indices*, so if the tree's topology is preserved while geometry moves -
exactly what refitting does - stale predictions degrade gracefully
instead of breaking.  ``refit_bvh`` updates every node's bounds
bottom-up for a deformed copy of the original mesh, keeping indices,
parents and leaf ranges identical.

The refit is level-synchronous: all leaves fold their triangle ranges
in one gather + ``reduceat``, then interior bounds propagate one depth
per pass over the precomputed :meth:`~repro.bvh.nodes.FlatBVH.levels`
schedule, so the whole refit is O(depth) numpy kernels.  The reverse
per-node loop it replaced is kept in :mod:`repro.reference` as the
differential oracle (``tests/test_refit_interframe.py`` asserts exact
bound equality between the two).
"""

from __future__ import annotations

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.geometry.triangle import TriangleMesh


def refit_bvh(bvh: FlatBVH, mesh: TriangleMesh) -> FlatBVH:
    """Return a copy of ``bvh`` refitted to a deformed ``mesh``.

    ``mesh`` must contain the same triangles in the same (reordered)
    order as ``bvh.mesh``; only vertex positions may differ.  The
    returned tree shares topology (indices, parents, leaf ranges) with
    the input, so predictor tables trained on the old tree remain
    index-compatible.

    Raises:
        ValueError: if the mesh's triangle count differs.
    """
    return _refit(bvh, mesh, _refit_vector, engine="vector")


def _refit(bvh: FlatBVH, mesh: TriangleMesh, bounds, engine: str) -> FlatBVH:
    """:func:`refit_bvh` with node bounds from ``bounds`` (the
    :mod:`repro.reference` twin passes its per-node loop here)."""
    if len(mesh) != bvh.num_triangles:
        raise ValueError(
            f"mesh has {len(mesh)} triangles, BVH expects {bvh.num_triangles}"
        )

    tri_lo = np.minimum(np.minimum(mesh.v0, mesh.v1), mesh.v2)
    tri_hi = np.maximum(np.maximum(mesh.v0, mesh.v1), mesh.v2)
    lo, hi = bounds(bvh, tri_lo, tri_hi)

    from repro import telemetry

    if telemetry.enabled():
        telemetry.inc_counter(
            "bvh.refit_nodes", bvh.num_nodes, engine=engine
        )

    return FlatBVH(
        lo=lo,
        hi=hi,
        left=bvh.left,
        right=bvh.right,
        first_tri=bvh.first_tri,
        tri_count=bvh.tri_count,
        parent=bvh.parent,
        mesh=mesh,
        tri_indices=bvh.tri_indices,
    )


def _refit_vector(bvh: FlatBVH, tri_lo: np.ndarray, tri_hi: np.ndarray):
    """Level-synchronous refit: O(depth) segmented reductions."""
    from repro.bvh.vector import concat_ranges

    lo = bvh.lo.copy()
    hi = bvh.hi.copy()
    leaves = bvh.leaf_nodes()
    if leaves.size:
        starts = bvh.first_tri[leaves]
        counts = bvh.tri_count[leaves]
        if np.any(counts <= 0):
            bad = leaves[int(np.argmax(counts <= 0))]
            raise ValueError(f"leaf {int(bad)} holds no triangles")
        positions, _, _, seg_offsets = concat_ranges(starts, starts + counts)
        lo[leaves] = np.minimum.reduceat(tri_lo[positions], seg_offsets, axis=0)
        hi[leaves] = np.maximum.reduceat(tri_hi[positions], seg_offsets, axis=0)
    for nodes in reversed(bvh.levels()):
        parents = nodes[bvh.left[nodes] >= 0]
        if parents.size:
            left = bvh.left[parents]
            right = bvh.right[parents]
            lo[parents] = np.minimum(lo[left], lo[right])
            hi[parents] = np.maximum(hi[left], hi[right])
    return lo, hi


def jitter_mesh(
    mesh: TriangleMesh, magnitude: float, seed: int = 0
) -> TriangleMesh:
    """Deform a mesh by a smooth per-triangle offset (animation stand-in).

    Each triangle translates rigidly by a bounded pseudo-random offset,
    preserving triangle shapes - the kind of incremental motion a
    per-frame refit is designed for.
    """
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-magnitude, magnitude, (len(mesh), 3))
    return TriangleMesh(mesh.v0 + offsets, mesh.v1 + offsets, mesh.v2 + offsets)


__all__ = ["jitter_mesh", "refit_bvh"]
