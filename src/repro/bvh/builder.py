"""BVH construction: :func:`build_bvh` over three split strategies.

``"median"`` splits at the centroid median of the longest axis (fast,
balanced, predictable memory use - the paper cites balance and
predictability as reasons to choose BVHs); ``"sah"`` takes the greedy
binned surface-area-heuristic split of Aila-Laine style tracers;
``"lbvh"`` splits the Morton-sorted triangles where the highest code
bit differs.  Each runs as a level-synchronous frontier builder
(:mod:`repro.bvh.vector`); the per-node builders they replaced are
differential oracles in :mod:`repro.reference`.
"""

from __future__ import annotations

from repro.bvh.nodes import FlatBVH
from repro.bvh.vector import (
    VectorBinnedSAHBuilder,
    VectorLBVHBuilder,
    VectorMedianSplitBuilder,
)
from repro.geometry.triangle import TriangleMesh

#: The frontier builder behind each :func:`build_bvh` method.
_BUILDERS = {
    "sah": VectorBinnedSAHBuilder,
    "median": VectorMedianSplitBuilder,
    "lbvh": VectorLBVHBuilder,
}


def build_bvh(
    mesh: TriangleMesh,
    method: str = "sah",
    max_leaf_size: int = 4,
    validate: bool = False,
    **kwargs,
) -> FlatBVH:
    """Build a BVH over ``mesh`` using a named strategy.

    Args:
        mesh: the triangle soup.
        method: ``"sah"``, ``"median"``, or ``"lbvh"``.
        max_leaf_size: maximum triangles per leaf.
        validate: run the full structural invariant check
            (:func:`repro.bvh.validate.validate_bvh`) on the result -
            worth the O(n) pass before long experiments or when the
            input mesh is untrusted.
        **kwargs: forwarded to the selected builder.

    Raises:
        BVHValidationError: with ``validate=True``, if the built tree
            violates a structural invariant.
    """
    from repro import telemetry
    from repro.telemetry.publish import publish_bvh

    with telemetry.span(
        "bvh.build", method=method, engine="vector", triangles=len(mesh)
    ) as sp:
        if method not in _BUILDERS:
            raise ValueError(f"unknown BVH build method: {method!r}")
        builder = _BUILDERS[method](max_leaf_size=max_leaf_size, **kwargs)
        bvh = builder.build(mesh)
        sp.add(nodes=bvh.num_nodes)
    publish_bvh(bvh, method=method)
    if telemetry.enabled():
        telemetry.inc_counter(
            "bvh.build_levels", builder.levels_built, method=method,
            engine="vector",
        )
    if validate:
        from repro.bvh.validate import validate_bvh

        validate_bvh(bvh)
    return bvh
