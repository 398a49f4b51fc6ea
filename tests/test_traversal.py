"""Unit tests for the while-while traversal kernels (Algorithm 1).

Correctness is checked against brute-force intersection over all
triangles - the ground truth the BVH must never disagree with.
"""

import math

import numpy as np

from repro.bvh import build_bvh
from repro.geometry.intersect import ray_triangle_intersect
from repro.geometry.ray import Ray
from repro.trace import (
    TraversalStats,
    closest_hit,
    occlusion_all_hit_leaves,
    occlusion_any_hit,
    occlusion_any_hit_tri,
    occlusion_from_nodes,
    trace_closest_batch,
    trace_occlusion_batch,
)


def brute_force_any_hit(mesh, ray: Ray) -> bool:
    for i in range(len(mesh)):
        t = ray_triangle_intersect(
            ray.origin[0], ray.origin[1], ray.origin[2],
            ray.direction[0], ray.direction[1], ray.direction[2],
            ray.t_min, ray.t_max,
            tuple(mesh.v0[i]), tuple(mesh.v1[i]), tuple(mesh.v2[i]),
        )
        if t is not None:
            return True
    return False


def brute_force_closest(mesh, ray: Ray):
    best_t, best_i = math.inf, -1
    for i in range(len(mesh)):
        t = ray_triangle_intersect(
            ray.origin[0], ray.origin[1], ray.origin[2],
            ray.direction[0], ray.direction[1], ray.direction[2],
            ray.t_min, ray.t_max,
            tuple(mesh.v0[i]), tuple(mesh.v1[i]), tuple(mesh.v2[i]),
        )
        if t is not None and t < best_t:
            best_t, best_i = t, i
    return best_t, best_i


def random_rays(bvh, n=60, seed=4):
    rng = np.random.default_rng(seed)
    aabb_lo = np.asarray(bvh.lo[0])
    aabb_hi = np.asarray(bvh.hi[0])
    span = aabb_hi - aabb_lo
    rays = []
    for _ in range(n):
        origin = aabb_lo - 0.2 * span + rng.random(3) * 1.4 * span
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        t_max = float(rng.uniform(0.5, 3.0) * np.linalg.norm(span))
        rays.append(Ray(tuple(origin), tuple(direction), 0.0, t_max))
    return rays


class TestOcclusionCorrectness:
    def test_matches_brute_force(self, small_bvh):
        for i, ray in enumerate(random_rays(small_bvh)):
            expected = brute_force_any_hit(small_bvh.mesh, ray)
            assert occlusion_any_hit(small_bvh, ray) == expected, f"ray {i}"

    def test_same_result_across_builders(self, small_scene):
        # Trees of three shapes over one mesh: occlusion must not depend
        # on how the triangles were grouped.
        bvhs = {
            leaf: build_bvh(small_scene.mesh, max_leaf_size=leaf)
            for leaf in (1, 4, 8)
        }
        for ray in random_rays(bvhs[4], n=30, seed=9):
            results = {leaf: occlusion_any_hit(b, ray) for leaf, b in bvhs.items()}
            assert len(set(results.values())) == 1, results

    def test_returned_triangle_actually_hits(self, small_bvh):
        mesh = small_bvh.mesh
        for ray in random_rays(small_bvh, n=40, seed=13):
            tri = occlusion_any_hit_tri(small_bvh, ray)
            if tri >= 0:
                t = ray_triangle_intersect(
                    ray.origin[0], ray.origin[1], ray.origin[2],
                    ray.direction[0], ray.direction[1], ray.direction[2],
                    ray.t_min, ray.t_max,
                    tuple(mesh.v0[tri]), tuple(mesh.v1[tri]), tuple(mesh.v2[tri]),
                )
                assert t is not None

    def test_short_ray_misses(self, small_bvh):
        # Zero-length interval cannot hit anything.
        ray = Ray((4, 2, 3), (1, 0, 0), 0.0, 1e-12)
        assert not occlusion_any_hit(small_bvh, ray)

    def test_ray_outside_scene_misses(self, small_bvh):
        ray = Ray((100, 100, 100), (1, 0, 0), 0.0, 5.0)
        assert not occlusion_any_hit(small_bvh, ray)


class TestClosestHit:
    def test_matches_brute_force(self, small_bvh):
        for i, ray in enumerate(random_rays(small_bvh, seed=21)):
            expected_t, _ = brute_force_closest(small_bvh.mesh, ray)
            t, tri = closest_hit(small_bvh, ray)
            if expected_t == math.inf:
                assert tri == -1, f"ray {i}"
            else:
                assert math.isclose(t, expected_t, rel_tol=1e-9), f"ray {i}"

    def test_miss_returns_inf(self, small_bvh):
        t, tri = closest_hit(small_bvh, Ray((100, 100, 100), (1, 0, 0)))
        assert t == math.inf and tri == -1

    def test_closest_at_most_any_hit_t(self, small_bvh):
        mesh = small_bvh.mesh
        for ray in random_rays(small_bvh, n=30, seed=30):
            t_closest, tri_c = closest_hit(small_bvh, ray)
            tri_any = occlusion_any_hit_tri(small_bvh, ray)
            assert (tri_c >= 0) == (tri_any >= 0)
            if tri_any >= 0:
                t_any = ray_triangle_intersect(
                    ray.origin[0], ray.origin[1], ray.origin[2],
                    ray.direction[0], ray.direction[1], ray.direction[2],
                    ray.t_min, ray.t_max,
                    tuple(mesh.v0[tri_any]), tuple(mesh.v1[tri_any]),
                    tuple(mesh.v2[tri_any]),
                )
                assert t_closest <= t_any + 1e-9


class TestStatsCounters:
    def test_counters_accumulate(self, small_bvh):
        stats = TraversalStats()
        rays = random_rays(small_bvh, n=10, seed=2)
        for ray in rays:
            occlusion_any_hit(small_bvh, ray, stats=stats)
        assert stats.rays == 10
        assert stats.node_fetches > 0
        assert stats.box_tests >= 2 * stats.node_fetches
        assert stats.total_accesses == stats.node_fetches + stats.tri_fetches

    def test_trace_recording(self, small_bvh):
        stats = TraversalStats()
        ray = random_rays(small_bvh, n=1, seed=3)[0]
        occlusion_any_hit(small_bvh, ray, stats=stats, record_trace=True)
        assert len(stats.trace) == stats.total_accesses
        kinds = {kind for kind, _ in stats.trace}
        assert kinds <= {"node", "tri"}

    def test_no_trace_by_default(self, small_bvh):
        stats = TraversalStats()
        occlusion_any_hit(small_bvh, random_rays(small_bvh, n=1)[0], stats=stats)
        assert stats.trace == []

    def test_merge(self):
        a = TraversalStats(node_fetches=2, tri_fetches=1, rays=1, hits=1)
        b = TraversalStats(node_fetches=3, tri_fetches=0, rays=2, hits=0)
        a.merge(b)
        assert a.node_fetches == 5
        assert a.rays == 3
        assert a.hits == 1

    def test_per_ray(self):
        s = TraversalStats(node_fetches=10, tri_fetches=4, rays=2, hits=1)
        p = s.per_ray()
        assert p.node_fetches == 5.0
        assert p.hits == 0.5


class TestFromNodes:
    def test_verification_from_hit_leaf_succeeds(self, small_bvh):
        for ray in random_rays(small_bvh, n=40, seed=8):
            leaves = occlusion_all_hit_leaves(small_bvh, ray)
            if leaves:
                leaf = next(iter(leaves))
                assert occlusion_from_nodes(small_bvh, ray, [leaf])

    def test_verification_from_ancestor_succeeds(self, small_bvh):
        for ray in random_rays(small_bvh, n=40, seed=8):
            leaves = occlusion_all_hit_leaves(small_bvh, ray)
            if leaves:
                leaf = next(iter(leaves))
                ancestor = small_bvh.ancestor(leaf, 2)
                assert occlusion_from_nodes(small_bvh, ray, [ancestor])

    def test_verification_from_root_equals_full(self, small_bvh):
        for ray in random_rays(small_bvh, n=20, seed=18):
            assert occlusion_from_nodes(small_bvh, ray, [0]) == occlusion_any_hit(
                small_bvh, ray
            )

    def test_wrong_subtree_fails_for_missing_rays(self, small_bvh):
        miss_ray = Ray((100, 100, 100), (0, 1, 0), 0.0, 1.0)
        some_leaf = int(small_bvh.leaf_nodes()[0])
        assert not occlusion_from_nodes(small_bvh, miss_ray, [some_leaf])

    def test_empty_start_nodes_is_miss(self, small_bvh):
        ray = random_rays(small_bvh, n=1)[0]
        assert not occlusion_from_nodes(small_bvh, ray, [])


class TestAllHitLeaves:
    def test_leaves_are_leaves(self, small_bvh):
        for ray in random_rays(small_bvh, n=20, seed=40):
            for leaf in occlusion_all_hit_leaves(small_bvh, ray):
                assert small_bvh.is_leaf(leaf)

    def test_consistent_with_any_hit(self, small_bvh):
        for ray in random_rays(small_bvh, n=40, seed=41):
            leaves = occlusion_all_hit_leaves(small_bvh, ray)
            assert bool(leaves) == occlusion_any_hit(small_bvh, ray)

    def test_hit_leaf_contains_any_hit_triangle(self, small_bvh):
        mapping = small_bvh.leaf_of_triangle()
        for ray in random_rays(small_bvh, n=40, seed=42):
            tri = occlusion_any_hit_tri(small_bvh, ray)
            if tri >= 0:
                assert mapping[tri] in occlusion_all_hit_leaves(small_bvh, ray)


class TestBatchWrappers:
    def test_occlusion_batch(self, small_bvh, small_workload):
        stats = TraversalStats()
        hits = trace_occlusion_batch(small_bvh, small_workload.rays, stats=stats)
        assert hits.shape == (len(small_workload),)
        assert stats.rays == len(small_workload)
        assert stats.hits == int(hits.sum())

    def test_closest_batch(self, small_bvh, small_workload):
        ts, tris = trace_closest_batch(small_bvh, small_workload.rays)
        assert (np.isfinite(ts) == (tris >= 0)).all()
