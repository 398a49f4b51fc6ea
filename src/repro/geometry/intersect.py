"""Ray-box and ray-triangle intersection tests.

These are the two operations the paper's RT unit accelerates in hardware
(the Box Intersection Evaluators and Triangle Intersection Evaluators of
the NVIDIA RT Core, and the T&I engine's pipelined units).  The scalar
variants take unpacked floats so the traversal loop avoids per-call object
construction; the batch variants operate on numpy arrays.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

_EPS = 1e-12


def ray_aabb_intersect(
    ox: float,
    oy: float,
    oz: float,
    inv_dx: float,
    inv_dy: float,
    inv_dz: float,
    t_min: float,
    t_max: float,
    lo_x: float,
    lo_y: float,
    lo_z: float,
    hi_x: float,
    hi_y: float,
    hi_z: float,
) -> Tuple[bool, float]:
    """Slab test of a ray against an AABB.

    Returns ``(hit, t_entry)`` where ``t_entry`` is the parametric distance
    at which the ray enters the box (clamped to ``t_min``).  Traversal uses
    ``t_entry`` to visit the nearer child first.
    """
    tx1 = (lo_x - ox) * inv_dx
    tx2 = (hi_x - ox) * inv_dx
    if tx1 > tx2:
        tx1, tx2 = tx2, tx1
    ty1 = (lo_y - oy) * inv_dy
    ty2 = (hi_y - oy) * inv_dy
    if ty1 > ty2:
        ty1, ty2 = ty2, ty1
    tz1 = (lo_z - oz) * inv_dz
    tz2 = (hi_z - oz) * inv_dz
    if tz1 > tz2:
        tz1, tz2 = tz2, tz1

    t_near = max(tx1, ty1, tz1, t_min)
    t_far = min(tx2, ty2, tz2, t_max)
    return (t_near <= t_far, t_near)


def ray_triangle_intersect(
    ox: float,
    oy: float,
    oz: float,
    dx: float,
    dy: float,
    dz: float,
    t_min: float,
    t_max: float,
    v0: Tuple[float, float, float],
    v1: Tuple[float, float, float],
    v2: Tuple[float, float, float],
) -> Optional[float]:
    """Moeller-Trumbore ray-triangle test.

    Returns the hit parameter ``t`` in ``[t_min, t_max]``, or ``None`` if
    the ray misses.  Both triangle orientations count as hits (no
    back-face culling), matching occlusion-ray semantics.
    """
    e1x = v1[0] - v0[0]
    e1y = v1[1] - v0[1]
    e1z = v1[2] - v0[2]
    e2x = v2[0] - v0[0]
    e2y = v2[1] - v0[1]
    e2z = v2[2] - v0[2]

    # p = d x e2
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x

    det = e1x * px + e1y * py + e1z * pz
    if -_EPS < det < _EPS:
        return None
    inv_det = 1.0 / det

    tx = ox - v0[0]
    ty = oy - v0[1]
    tz = oz - v0[2]
    u = (tx * px + ty * py + tz * pz) * inv_det
    if u < 0.0 or u > 1.0:
        return None

    # q = t x e1
    qx = ty * e1z - tz * e1y
    qy = tz * e1x - tx * e1z
    qz = tx * e1y - ty * e1x
    v = (dx * qx + dy * qy + dz * qz) * inv_det
    if v < 0.0 or u + v > 1.0:
        return None

    t = (e2x * qx + e2y * qy + e2z * qz) * inv_det
    if t < t_min or t > t_max:
        return None
    return t


def ray_aabb_intersect_batch(
    origins: np.ndarray,
    inv_directions: np.ndarray,
    t_min: np.ndarray,
    t_max: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Vectorized slab test of ``n`` rays against one box each.

    All ray arrays have shape ``(n, 3)`` / ``(n,)``; ``lo``/``hi`` may be a
    single box ``(3,)`` or per-ray boxes ``(n, 3)``.  Returns a boolean
    array of shape ``(n,)``.
    """
    with np.errstate(invalid="ignore"):
        t1 = (lo - origins) * inv_directions
        t2 = (hi - origins) * inv_directions
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    # Chained over the three slab columns: a length-3 axis reduction
    # costs far more per call.  NaN propagates alike, and a signed zero
    # only reaches the `<=`.
    t_near = np.maximum(
        np.maximum(np.maximum(near[..., 0], near[..., 1]), near[..., 2]), t_min
    )
    t_far = np.minimum(
        np.minimum(np.minimum(far[..., 0], far[..., 1]), far[..., 2]), t_max
    )
    return t_near <= t_far


def ray_triangle_intersect_batch(
    origins: np.ndarray,
    directions: np.ndarray,
    t_min: np.ndarray,
    t_max: np.ndarray,
    v0: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
) -> np.ndarray:
    """Vectorized Moeller-Trumbore test of ``n`` rays against one triangle each.

    Returns a float array of hit parameters with ``np.inf`` for misses.

    The arithmetic is spelled out component by component in exactly the
    evaluation order of the scalar :func:`ray_triangle_intersect`, so the
    two kernels produce bit-identical ``t`` values - the contract the
    wavefront engine's differential tests rely on.  (``np.cross`` /
    ``einsum`` reductions may associate sums differently and drift by an
    ulp.)
    """
    v0 = np.asarray(v0, dtype=np.float64)
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    ox, oy, oz = origins[..., 0], origins[..., 1], origins[..., 2]
    dx, dy, dz = directions[..., 0], directions[..., 1], directions[..., 2]
    e1x = v1[..., 0] - v0[..., 0]
    e1y = v1[..., 1] - v0[..., 1]
    e1z = v1[..., 2] - v0[..., 2]
    e2x = v2[..., 0] - v0[..., 0]
    e2y = v2[..., 1] - v0[..., 1]
    e2z = v2[..., 2] - v0[..., 2]

    # p = d x e2
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x

    det = e1x * px + e1y * py + e1z * pz
    near_zero = np.abs(det) < _EPS
    inv_det = 1.0 / np.where(near_zero, 1.0, det)

    tx = ox - v0[..., 0]
    ty = oy - v0[..., 1]
    tz = oz - v0[..., 2]
    u = (tx * px + ty * py + tz * pz) * inv_det

    # q = t x e1
    qx = ty * e1z - tz * e1y
    qy = tz * e1x - tx * e1z
    qz = tx * e1y - ty * e1x
    v = (dx * qx + dy * qy + dz * qz) * inv_det
    t = (e2x * qx + e2y * qy + e2z * qz) * inv_det

    hit = (
        ~near_zero
        & (u >= 0.0)
        & (u <= 1.0)
        & (v >= 0.0)
        & (u + v <= 1.0)
        & (t >= t_min)
        & (t <= t_max)
    )
    return np.where(hit, t, np.inf)
