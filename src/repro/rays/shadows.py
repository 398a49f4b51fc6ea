"""Shadow-ray workload generation.

The paper's introduction motivates occlusion rays with hybrid
rendering: commercial titles add ray-traced *shadows* on top of a raster
base (the Shadowlands example).  Shadow rays are occlusion rays exactly
like AO rays - any hit between a surface point and the light means
shadow - so the predictor applies unchanged.  This generator produces
one shadow ray per primary-hit pixel toward a point light, bounded by
the light distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.geometry.ray import RayBatch, RayBatchValidation, validate_ray_batch
from repro.rays.camera import _primary_hits
from repro.scenes.scene import Scene

_SURFACE_EPSILON = 1e-4
#: Shadow rays stop just short of the light to avoid self-intersection.
_LIGHT_EPSILON = 1e-3


@dataclass
class ShadowWorkload:
    """Shadow rays plus the pixel each belongs to."""

    rays: RayBatch
    pixel_index: np.ndarray
    light: tuple
    width: int
    height: int
    validation: Optional[RayBatchValidation] = None

    def __len__(self) -> int:
        return len(self.rays)


def default_light_position(scene: Scene) -> tuple:
    """A point light near the scene ceiling, slightly off-center."""
    aabb = scene.aabb()
    cx, _, cz = aabb.center()
    ex = aabb.extent()
    return (
        float(cx + 0.2 * ex[0]),
        float(aabb.hi[1] - 0.08 * ex[1]),
        float(cz - 0.15 * ex[2]),
    )


def generate_shadow_workload(
    scene: Scene,
    bvh: FlatBVH,
    width: int = 64,
    height: int = 64,
    light: Sequence[float] | None = None,
) -> ShadowWorkload:
    """One shadow ray per primary-hit pixel toward ``light``.

    Rays carry ``t_max`` equal to the surface-to-light distance (less an
    epsilon), so any hit inside the interval means the pixel is shadowed
    - first-hit termination applies, the predictor's target case.
    """
    light_pos = tuple(light) if light is not None else default_light_position(scene)
    _, hit_idx, points, normals = _primary_hits(scene, bvh, width, height)
    if hit_idx.size == 0:
        return ShadowWorkload(
            RayBatch(np.zeros((0, 3)), np.zeros((0, 3))),
            np.zeros(0, dtype=np.int64), light_pos, width, height,
        )

    to_light = np.asarray(light_pos) - points
    distances = np.linalg.norm(to_light, axis=1)
    distances[distances == 0.0] = 1.0
    directions = to_light / distances[:, None]
    origins = points + _SURFACE_EPSILON * normals

    rays = RayBatch(
        origins, directions,
        t_min=0.0, t_max=np.maximum(distances - _LIGHT_EPSILON, 0.0),
    )
    pixel_index = hit_idx
    # Input boundary guard, same as the AO generator: a light sitting
    # exactly on a surface point yields a zero-length direction, and
    # degenerate geometry can produce NaN normals.
    rays, validation = validate_ray_batch(rays, mode="filter")
    if not validation.ok:
        pixel_index = pixel_index[validation.kept]
    return ShadowWorkload(
        rays, pixel_index, light_pos, width, height, validation=validation
    )
