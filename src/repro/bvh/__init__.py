"""Bounding Volume Hierarchy construction and flat storage.

The paper uses Aila-Laine style BVH trees (binary, axis-aligned boxes,
triangles in leaves) with one addition: the k-th ancestor of each node is
precomputed at build time and stored in the node's padded space so the
predictor's Go Up Level needs no extra memory accesses (Section 4.3,
Figure 8).  :class:`FlatBVH` mirrors that layout in structure-of-arrays
form and exposes :meth:`FlatBVH.ancestors` for any Go Up Level.
"""

from repro.bvh.builder import build_bvh
from repro.bvh.nodes import NODE_SIZE_BYTES, TRIANGLE_SIZE_BYTES, FlatBVH
from repro.bvh.refit import jitter_mesh, refit_bvh
from repro.bvh.stats import BVHStats, compute_stats
from repro.bvh.validate import validate_bvh
from repro.bvh.vector import (
    VectorBinnedSAHBuilder,
    VectorLBVHBuilder,
    VectorMedianSplitBuilder,
)

__all__ = [
    "NODE_SIZE_BYTES",
    "TRIANGLE_SIZE_BYTES",
    "BVHStats",
    "FlatBVH",
    "VectorBinnedSAHBuilder",
    "VectorLBVHBuilder",
    "VectorMedianSplitBuilder",
    "build_bvh",
    "compute_stats",
    "jitter_mesh",
    "refit_bvh",
    "validate_bvh",
]
