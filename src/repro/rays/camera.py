"""Pinhole camera, primary-ray generation and the primary-hit pass."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.geometry.ray import RayBatch
from repro.scenes.scene import CameraSpec, Scene
from repro.trace.traversal import trace_closest_batch


class PinholeCamera:
    """A classic look-at pinhole camera.

    Generates one primary ray per pixel through the image plane; pixel
    (0, 0) is the top-left corner, rays pass through pixel centers.
    """

    def __init__(self, spec: CameraSpec, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError("image dimensions must be positive")
        self.spec = spec
        self.width = width
        self.height = height

        eye = np.asarray(spec.eye, dtype=np.float64)
        look_at = np.asarray(spec.look_at, dtype=np.float64)
        up = np.asarray(spec.up, dtype=np.float64)
        forward = look_at - eye
        norm = np.linalg.norm(forward)
        if norm == 0.0:
            raise ValueError("camera eye and look_at coincide")
        forward /= norm
        right = np.cross(forward, up)
        r_norm = np.linalg.norm(right)
        if r_norm < 1e-12:
            raise ValueError("camera up vector is parallel to view direction")
        right /= r_norm
        true_up = np.cross(right, forward)

        self._eye = eye
        self._forward = forward
        self._right = right
        self._up = true_up
        self._tan_half_fov = math.tan(math.radians(spec.fov_degrees) * 0.5)

    def primary_rays(self) -> RayBatch:
        """One normalized primary ray per pixel, row-major order."""
        xs = (np.arange(self.width) + 0.5) / self.width * 2.0 - 1.0
        ys = 1.0 - (np.arange(self.height) + 0.5) / self.height * 2.0
        aspect = self.width / self.height
        px, py = np.meshgrid(xs * self._tan_half_fov * aspect, ys * self._tan_half_fov)
        directions = (
            self._forward[None, None, :]
            + px[..., None] * self._right[None, None, :]
            + py[..., None] * self._up[None, None, :]
        ).reshape(-1, 3)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        origins = np.broadcast_to(self._eye, directions.shape).copy()
        return RayBatch(origins, directions, t_min=1e-4, t_max=np.inf)

    def pixel_of_ray(self, index: int) -> tuple[int, int]:
        """(x, y) pixel coordinates of primary ray ``index``."""
        if index < 0 or index >= self.width * self.height:
            raise IndexError("ray index out of range")
        return index % self.width, index // self.width


def _primary_hits(
    scene: Scene, bvh: FlatBVH, width: int, height: int
) -> Tuple[RayBatch, np.ndarray, np.ndarray, np.ndarray]:
    """Trace the camera's primary rays and describe the surfaces they hit.

    The first pass of every secondary-ray generator (AO, shadow and
    reflection rays).

    Returns:
        ``(primary, hit_idx, points, normals)``: every primary ray, the
        flat pixel indices whose ray hit geometry, the hit points, and
        the hit triangles' unit geometric normals flipped toward the
        viewer.
    """
    primary = PinholeCamera(scene.camera, width, height).primary_rays()
    ts, tris = trace_closest_batch(bvh, primary)
    hit_idx = np.nonzero(tris >= 0)[0]
    incoming = primary.directions[hit_idx]
    points = primary.origins[hit_idx] + incoming * ts[hit_idx][:, None]

    mesh = bvh.mesh
    hit_tris = tris[hit_idx]
    e1 = mesh.v1[hit_tris] - mesh.v0[hit_tris]
    e2 = mesh.v2[hit_tris] - mesh.v0[hit_tris]
    normals = np.cross(e1, e2)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    normals /= norms
    facing = np.einsum("ij,ij->i", normals, incoming)
    normals[facing > 0.0] *= -1.0
    return primary, hit_idx, points, normals
