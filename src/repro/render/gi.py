"""Global illumination with predicted t-max trimming (Section 6.4).

Closest-hit rays cannot simply skip traversal - every candidate must be
checked to find the nearest.  The paper's GI extension instead uses the
predictor to find a *candidate* intersection quickly, then runs the full
traversal with ``t_max`` trimmed to that candidate: every subtree beyond
the candidate is culled by the slab test, cutting node fetches.  The
paper reports a modest (4 %) average speedup for three-bounce GI.

:class:`PredictedClosestHitTracer` implements that flow; ``render_gi``
is a small cosine-sampled path tracer (sky-lit Lambertian) driving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.bvh.nodes import FlatBVH
from repro.core.predictor import PredictorConfig, RayPredictor
from repro.geometry.ray import Ray
from repro.geometry.vec import vec_normalize
from repro.rays.camera import PinholeCamera
from repro.rays.sampling import cosine_sample_hemisphere
from repro.scenes.scene import Scene
from repro.telemetry.stats import TraversalStats
from repro.trace.traversal import closest_hit

#: Offset along the surface normal to avoid self-intersection.
_SURFACE_EPSILON = 1e-4


class PredictedClosestHitTracer:
    """Closest-hit tracing with predictor-driven ``t_max`` trimming.

    ``trace`` returns the exact closest hit (identical to a plain
    traversal - trimming never changes the answer, only the work), while
    ``stats`` accumulates the node/triangle fetch counts so the saving
    can be measured against an untrimmed baseline.
    """

    def __init__(
        self, bvh: FlatBVH, config: Optional[PredictorConfig] = None
    ) -> None:
        self.bvh = bvh
        self.predictor = RayPredictor(bvh, config)
        self.stats = TraversalStats()
        self.predicted = 0
        self.trimmed = 0

    def trace(self, ray: Ray) -> Tuple[float, int]:
        """Closest hit of ``ray``: returns ``(t, tri)`` (``inf, -1`` miss)."""
        ray_hash = self.predictor.hash_ray(ray.origin, ray.direction)
        nodes = self.predictor.predict(ray_hash)

        t_limit = ray.t_max
        candidate_t = float("inf")
        candidate_tri = -1
        if nodes:
            self.predicted += 1
            for node in nodes:
                t, tri = _closest_in_subtree(
                    self.bvh, ray, node, min(t_limit, candidate_t), self.stats
                )
                if tri >= 0 and t < candidate_t:
                    candidate_t = t
                    candidate_tri = tri
            if candidate_tri >= 0:
                self.trimmed += 1
                # The candidate is a genuine intersection, so the true
                # closest hit is at most candidate_t: trim the interval.
                t_limit = candidate_t

        trimmed_ray = Ray(ray.origin, ray.direction, ray.t_min, t_limit)
        t, tri = closest_hit(self.bvh, trimmed_ray, stats=self.stats)
        if tri < 0 and candidate_tri >= 0:
            # Nothing strictly closer than the candidate exists: the
            # candidate itself is the closest hit.
            t, tri = candidate_t, candidate_tri
        if tri >= 0:
            self.predictor.train(ray_hash, tri)
        return t, tri


def _closest_in_subtree(
    bvh: FlatBVH, ray: Ray, root: int, t_max: float, stats: TraversalStats
) -> Tuple[float, int]:
    """Closest hit restricted to the subtree under ``root``."""
    limited = Ray(ray.origin, ray.direction, ray.t_min, t_max)
    # Reuse the main closest-hit kernel by pushing only the subtree root.
    from repro.trace.traversal import occlusion_any_hit_tri  # local import: cycle-free

    # For candidate search a first-hit in the subtree suffices: any
    # intersection gives a valid upper bound for trimming.
    tri = occlusion_any_hit_tri(bvh, limited, stats=stats, start_nodes=[root])
    if tri < 0:
        return float("inf"), -1
    # Recover the t of that triangle to use as the trim bound.
    from repro.geometry.intersect import ray_triangle_intersect

    mesh = bvh.mesh
    t = ray_triangle_intersect(
        ray.origin[0], ray.origin[1], ray.origin[2],
        ray.direction[0], ray.direction[1], ray.direction[2],
        ray.t_min, t_max,
        tuple(mesh.v0[tri]), tuple(mesh.v1[tri]), tuple(mesh.v2[tri]),
    )
    return (t if t is not None else float("inf")), tri


@dataclass
class GIResult:
    """Output of a GI render.

    Attributes:
        image: grayscale radiance image, shape ``(h, w)``.
        stats: traversal counters of the predicted tracer (or the plain
            baseline when prediction is disabled).
        rays_traced: total closest-hit rays traced (all bounces).
        predicted / trimmed: predictor engagement counters (0 when off).
    """

    image: np.ndarray
    stats: TraversalStats
    rays_traced: int
    predicted: int
    trimmed: int


def render_gi(
    scene: Scene,
    bvh: FlatBVH,
    width: int = 32,
    height: int = 32,
    bounces: int = 3,
    seed: int = 0,
    predictor_config: Optional[PredictorConfig] = None,
    use_predictor: bool = True,
) -> GIResult:
    """Path-trace ``scene`` with cosine-sampled bounces and sky lighting.

    Every surface is Lambertian with fixed albedo; paths that escape the
    scene collect sky radiance.  With ``use_predictor`` the closest-hit
    rays run through :class:`PredictedClosestHitTracer` (Section 6.4).
    """
    if bounces < 1:
        raise ValueError("bounces must be >= 1")
    rng = np.random.default_rng(seed)
    camera = PinholeCamera(scene.camera, width, height)
    primary = camera.primary_rays()

    tracer = PredictedClosestHitTracer(bvh, predictor_config) if use_predictor else None
    stats = tracer.stats if tracer else TraversalStats()
    albedo = 0.7
    sky = 1.0
    mesh = bvh.mesh
    # Indoor scenes are closed, so paths would never see the sky; treat
    # the top few percent of the scene (the ceiling) as an emissive
    # panel, the standard stand-in for interior lighting.
    aabb = scene.aabb()
    ceiling_y = aabb.hi[1] - 0.02 * max(aabb.extent()[1], 1e-9)
    emissive = 1.0

    radiance = np.zeros(width * height, dtype=np.float64)
    rays_traced = 0
    for pixel in range(len(primary)):
        ray = primary[pixel]
        throughput = 1.0
        value = 0.0
        for _ in range(bounces + 1):
            rays_traced += 1
            if tracer:
                t, tri = tracer.trace(ray)
            else:
                t, tri = closest_hit(bvh, ray, stats=stats)
            if tri < 0:
                value += throughput * sky
                break
            point = ray.at(t)
            if point[1] >= ceiling_y:
                value += throughput * emissive
                break
            throughput *= albedo
            normal = _facing_normal(mesh, tri, ray)
            direction = cosine_sample_hemisphere(normal, rng.random(), rng.random())
            origin = (
                point[0] + _SURFACE_EPSILON * normal[0],
                point[1] + _SURFACE_EPSILON * normal[1],
                point[2] + _SURFACE_EPSILON * normal[2],
            )
            ray = Ray(origin, direction, 0.0, float("inf"))
        radiance[pixel] = value

    return GIResult(
        image=radiance.reshape(height, width),
        stats=stats,
        rays_traced=rays_traced,
        predicted=tracer.predicted if tracer else 0,
        trimmed=tracer.trimmed if tracer else 0,
    )


def _facing_normal(mesh, tri: int, ray: Ray):
    """Unit geometric normal of ``tri`` flipped toward the ray origin."""
    v0 = mesh.v0[tri]
    e1 = mesh.v1[tri] - v0
    e2 = mesh.v2[tri] - v0
    n = np.cross(e1, e2)
    normal = vec_normalize(tuple(n))
    d = ray.direction
    if normal[0] * d[0] + normal[1] * d[1] + normal[2] * d[2] > 0.0:
        normal = (-normal[0], -normal[1], -normal[2])
    return normal
