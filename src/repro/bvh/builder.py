"""BVH construction: :func:`build_bvh`, the greedy binned SAH split.

Every tree is built with the binned surface-area-heuristic split of
Aila-Laine style tracers, the trees the paper's RT unit traverses.  It
runs as a level-synchronous frontier builder (:mod:`repro.bvh.vector`);
the per-node builder it replaced is the differential oracle in
:mod:`repro.reference`.
"""

from __future__ import annotations

from repro.bvh.nodes import FlatBVH
from repro.bvh.vector import VectorBinnedSAHBuilder
from repro.geometry.triangle import TriangleMesh


def build_bvh(
    mesh: TriangleMesh,
    max_leaf_size: int = 4,
    validate: bool = False,
    **kwargs,
) -> FlatBVH:
    """Build a binned-SAH BVH over ``mesh``.

    Args:
        mesh: the triangle soup.
        max_leaf_size: maximum triangles per leaf.
        validate: run the full structural invariant check
            (:func:`repro.bvh.validate.validate_bvh`) on the result -
            worth the O(n) pass before long experiments or when the
            input mesh is untrusted.
        **kwargs: forwarded to :class:`~repro.bvh.vector.VectorBinnedSAHBuilder`
            (``num_bins``, ``traversal_cost``, ``intersect_cost``).

    Raises:
        BVHValidationError: with ``validate=True``, if the built tree
            violates a structural invariant.
    """
    from repro import telemetry
    from repro.telemetry.publish import publish_bvh

    with telemetry.span(
        "bvh.build", engine="vector", triangles=len(mesh)
    ) as sp:
        builder = VectorBinnedSAHBuilder(max_leaf_size=max_leaf_size, **kwargs)
        bvh = builder.build(mesh)
        sp.add(nodes=bvh.num_nodes)
    publish_bvh(bvh)
    if telemetry.enabled():
        telemetry.inc_counter(
            "bvh.build_levels", builder.levels_built, engine="vector",
        )
    if validate:
        from repro.bvh.validate import validate_bvh

        validate_bvh(bvh)
    return bvh
