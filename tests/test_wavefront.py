"""Wavefront engine tests: edge cases, guards, and engine equivalence.

The differential tests are the executable form of the engine contract
(see ``src/repro/trace/wavefront.py``): hit *results* - occlusion
booleans, closest-hit ``t`` and triangle - of the production batch calls
are bit-identical to the scalar per-ray loops of :mod:`repro.reference`
on every registry scene (the triangle up to genuine exact-``t`` ties,
where each engine reports the lowest index it visited); order-dependent
statistics are explicitly outside the contract.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.bvh import build_bvh
from repro.core.simulate import simulate_predictor
from repro.errors import TraversalError
from repro.faults import run_differential_oracle
from repro.geometry.intersect import ray_triangle_intersect
from repro.geometry.ray import Ray, RayBatch
from repro.rays import generate_ao_workload
from repro.scenes import SCENE_CODES, get_scene
from repro.trace import (
    TraversalStats,
    as_ray_batch,
    trace_closest_batch,
    trace_occlusion_batch,
    wavefront_closest_batch,
    wavefront_occlusion_batch,
    wavefront_occlusion_tri_batch,
    wavefront_verify_batch,
)

MAX_EXAMPLES = int(os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "50"))


def _scene_rays(code, detail=0.3, size=10):
    scene = get_scene(code, detail=detail)
    bvh = build_bvh(scene.mesh)
    rays = generate_ao_workload(
        scene, bvh, width=size, height=size, spp=1, seed=1
    ).rays
    return bvh, rays


class TestEdgeCases:
    def test_empty_batch(self, small_bvh):
        empty = RayBatch(np.zeros((0, 3)), np.zeros((0, 3)))
        assert wavefront_occlusion_batch(small_bvh, empty).shape == (0,)
        ts, tri = wavefront_closest_batch(small_bvh, empty)
        assert ts.shape == (0,) and tri.shape == (0,)

    def test_single_ray(self, small_bvh, small_workload):
        one = small_workload.rays.subset(np.array([0]))
        occ = wavefront_occlusion_batch(small_bvh, one)
        assert occ.shape == (1,)
        assert occ[0] == reference.trace_occlusion_batch(small_bvh, one)[0]

    def test_all_miss(self, small_bvh):
        # Rays starting far outside the scene, pointing away: the root
        # slab test rejects everything and no kernel ever launches.
        n = 8
        origins = np.tile([1e6, 1e6, 1e6], (n, 1))
        directions = np.tile([0.0, 1.0, 0.0], (n, 1))
        rays = RayBatch(origins, directions)
        stats = TraversalStats()
        occ = wavefront_occlusion_batch(small_bvh, rays, stats=stats)
        assert not occ.any()
        assert stats.node_fetches == 0
        ts, tri = wavefront_closest_batch(small_bvh, rays)
        assert np.all(np.isinf(ts)) and np.all(tri == -1)

    def test_rays_inside_root_aabb(self, small_bvh):
        # Origins strictly inside the root box in every direction: the
        # pre-descent root test must pass for all of them (t_near <= 0).
        center = (small_bvh.lo[0] + small_bvh.hi[0]) / 2.0
        dirs = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            dtype=np.float64,
        )
        rays = RayBatch(np.tile(center, (6, 1)), dirs)
        stats = TraversalStats()
        wavefront_occlusion_batch(small_bvh, rays, stats=stats)
        assert stats.node_fetches > 0  # every ray descended past the root

    def test_zero_direction_component(self, small_bvh, small_workload):
        # Axis-parallel rays exercise the signed-infinity slab path.
        rays = RayBatch(
            small_workload.rays.origins[:4].copy(),
            np.tile([0.0, -1.0, 0.0], (4, 1)),
        )
        occ_w = wavefront_occlusion_batch(small_bvh, rays)
        occ_s = reference.trace_occlusion_batch(small_bvh, rays)
        assert np.array_equal(occ_w, occ_s)

    def test_as_ray_batch_coercion(self, small_bvh, small_workload):
        batch = small_workload.rays.subset(np.arange(5))
        assert as_ray_batch(batch) is batch
        coerced = as_ray_batch(list(batch))
        assert np.array_equal(coerced.origins, batch.origins)
        assert np.array_equal(coerced.t_max, batch.t_max)
        assert len(as_ray_batch([])) == 0
        one = as_ray_batch([Ray((0, 0, 0), (1, 0, 0))])
        assert len(one) == 1


class TestSpeculationGuards:
    def test_corrupt_start_nodes_raise(self, small_bvh, small_workload):
        rays = small_workload.rays.subset(np.arange(4))
        with pytest.raises(TraversalError):
            wavefront_occlusion_tri_batch(
                small_bvh, rays, start_nodes=[small_bvh.num_nodes + 7]
            )
        with pytest.raises(TraversalError):
            wavefront_occlusion_tri_batch(small_bvh, rays, start_nodes=[-2])

    def test_verify_guard_degrades_per_ray(self, small_bvh, small_workload):
        # One corrupt entry list must flag only its own ray; the rest of
        # the batch still verifies normally.
        rays = small_workload.rays.subset(np.arange(6))
        entries = [[0], [0], [small_bvh.num_nodes + 1], None, [], [0]]
        hit_tri, counters, fallback = wavefront_verify_batch(
            small_bvh, rays, entries
        )
        assert fallback.tolist() == [False, False, True, False, False, False]
        assert hit_tri[2] == -1  # corrupt ray never traversed
        assert counters.node_fetches[2] == 0
        assert counters.tri_fetches[2] == 0

    def test_verify_matches_full_traversal_from_root(self, small_bvh, small_workload):
        # Entry point 0 (the root) is a full traversal: occlusion must
        # match the plain batch result ray for ray.
        rays = small_workload.rays.subset(np.arange(32))
        hit_tri, _, fallback = wavefront_verify_batch(
            small_bvh, rays, [[0]] * 32
        )
        assert not fallback.any()
        expected = reference.trace_occlusion_batch(small_bvh, rays)
        assert np.array_equal(hit_tri >= 0, expected)


class TestDifferential:
    """Bit-identity between engines on every registry scene."""

    @pytest.mark.parametrize("code", SCENE_CODES)
    def test_all_scenes_bit_identical(self, code):
        bvh, rays = _scene_rays(code)
        occ_s = reference.trace_occlusion_batch(bvh, rays)
        occ_w = trace_occlusion_batch(bvh, rays)
        assert np.array_equal(occ_s, occ_w), "occlusion diverged"
        ts_s, tri_s = reference.trace_closest_batch(bvh, rays)
        ts_w, tri_w = trace_closest_batch(bvh, rays)
        assert np.array_equal(ts_s, ts_w), "closest-hit t diverged"
        assert np.array_equal(tri_s, tri_w), "closest-hit triangle diverged"

    def test_stats_totals_agree_on_results(self, small_bvh, small_workload):
        # Aggregate hit counts (result-derived) agree even though fetch
        # counters (order-derived) may not.
        s_stats, w_stats = TraversalStats(), TraversalStats()
        reference.trace_occlusion_batch(small_bvh, small_workload.rays, stats=s_stats)
        trace_occlusion_batch(small_bvh, small_workload.rays, stats=w_stats)
        assert s_stats.rays == w_stats.rays
        assert s_stats.hits == w_stats.hits

    def test_simulation_hits_identical(self, small_bvh, small_workload):
        rays = small_workload.rays
        rs = reference.simulate_predictor(small_bvh, rays, keep_outcomes=True)
        rw = simulate_predictor(small_bvh, rays, keep_outcomes=True)
        assert [o.hit for o in rs.outcomes] == [o.hit for o in rw.outcomes]

    # The oracle runs the production simulator only; the parameter
    # names it and keeps the test id stable.
    @pytest.mark.parametrize("engine", ["wavefront"])
    def test_fault_oracle_passes_under_both_engines(
        self, small_bvh, small_workload, engine
    ):
        report = run_differential_oracle(
            small_bvh, small_workload.rays, scene="TR"
        )
        assert report.ok, report.summary()


class TestPropertyEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=MAX_EXAMPLES)
    def test_random_rays_bit_identical(self, small_bvh, seed, n):
        """Random origins/directions around the scene: engines agree."""
        rng = np.random.default_rng(seed)
        span = small_bvh.hi[0] - small_bvh.lo[0]
        origins = small_bvh.lo[0] + rng.uniform(-0.25, 1.25, (n, 3)) * span
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        rays = RayBatch(origins, directions)
        occ_s = reference.trace_occlusion_batch(small_bvh, rays)
        occ_w = trace_occlusion_batch(small_bvh, rays)
        assert np.array_equal(occ_s, occ_w)
        ts_s, tri_s = reference.trace_closest_batch(small_bvh, rays)
        ts_w, tri_w = trace_closest_batch(small_bvh, rays)
        # Engines agree bit-for-bit except when a ray grazes a BVH node
        # face: the slab t_near and the Moeller-Trumbore t round
        # differently at the boundary, so the best-t-bounded box test
        # can cull a subtree under one traversal order but not the
        # other.  That surfaces two ways - the same t with a different
        # lowest-index-visited triangle (coplanar exact tie), or t
        # values a ULP apart (one engine pruned the subtree holding the
        # marginally closer triangle).  Either way both engines must
        # report a genuine intersection at exactly the t they claim,
        # and the claims may differ by at most a few ULPs.
        mesh = small_bvh.mesh
        for i in np.nonzero((ts_s != ts_w) | (tri_s != tri_w))[0]:
            assert tri_s[i] >= 0 and tri_w[i] >= 0
            gap = abs(ts_s[i] - ts_w[i])
            assert gap <= 4.0 * np.spacing(max(ts_s[i], ts_w[i])), (
                i, ts_s[i], ts_w[i],
            )
            for tri, t_claim in (
                (int(tri_s[i]), ts_s[i]), (int(tri_w[i]), ts_w[i])
            ):
                t = ray_triangle_intersect(
                    *origins[i], *directions[i], 0.0, np.inf,
                    tuple(mesh.v0[tri]), tuple(mesh.v1[tri]), tuple(mesh.v2[tri]),
                )
                assert t == t_claim, (i, tri, t, t_claim)
