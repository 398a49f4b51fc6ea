"""Memoized baseline traversal records (repro.core.baseline)."""

import numpy as np
import pytest

from repro.core.baseline import (
    CACHE_CAPACITY,
    BaselineRecord,
    baseline_cache_info,
    baseline_record,
    clear_baseline_cache,
)
from repro.trace import trace_occlusion_batch


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_baseline_cache()
    yield
    clear_baseline_cache()


class TestWavefrontRecord:
    def test_eager_compute_is_complete_and_correct(self, small_bvh, small_workload):
        rays = small_workload.rays
        record = baseline_record(small_bvh, rays, "wavefront")
        assert record.complete()
        # The record's occlusion agrees with the public tracer.
        occluded = trace_occlusion_batch(small_bvh, rays)
        assert np.array_equal(record.hit_tri >= 0, occluded)
        assert record.node_fetches.sum() > 0

    def test_second_call_hits_same_record(self, small_bvh, small_workload):
        rays = small_workload.rays
        first = baseline_record(small_bvh, rays, "wavefront")
        second = baseline_record(small_bvh, rays, "wavefront")
        assert second is first
        assert first.hits == 1

    def test_rebuilt_rays_with_equal_content_hit(self, small_bvh, small_workload):
        # Sweeps rebuild RayBatch views freely; content keys the record.
        rays = small_workload.rays
        first = baseline_record(small_bvh, rays, "wavefront")
        view = rays.subset(np.arange(len(rays)))
        assert baseline_record(small_bvh, view, "wavefront") is first

    def test_subset_rays_get_their_own_record(self, small_bvh, small_workload):
        rays = small_workload.rays
        whole = baseline_record(small_bvh, rays, "wavefront")
        half = rays.subset(np.arange(len(rays) // 2))
        partial = baseline_record(small_bvh, half, "wavefront")
        assert partial is not whole
        # Per-ray independence: the prefix of the whole-stream record
        # equals the standalone half-stream record.
        n = len(half)
        assert np.array_equal(partial.hit_tri, whole.hit_tri[:n])
        assert np.array_equal(partial.node_fetches, whole.node_fetches[:n])

    def test_engines_never_share_records(self, small_bvh, small_workload):
        rays = small_workload.rays
        wave = baseline_record(small_bvh, rays, "wavefront")
        scalar = baseline_record(small_bvh, rays, "scalar", compute=False)
        assert scalar is not wave
        assert not scalar.complete()


class TestScalarLazyFill:
    def test_record_fills_incrementally(self, small_bvh, small_workload):
        rays = small_workload.rays
        record = baseline_record(small_bvh, rays, "scalar", compute=False)
        record.record(0, 7, 11, 3)
        assert record.known[0] and not record.known[1:].any()
        assert record.hit_tri[0] == 7
        assert not record.complete()

    def test_known_rays_keep_first_value(self, small_bvh, small_workload):
        record = baseline_record(
            small_bvh, small_workload.rays, "scalar", compute=False
        )
        record.record(3, 5, 10, 2)
        record.record(3, 99, 999, 99)  # deterministic traversal: ignored
        assert record.hit_tri[3] == 5
        assert record.node_fetches[3] == 10

    def test_vector_fill_skips_known(self):
        record = BaselineRecord.empty(4)
        record.record(1, 8, 2, 1)
        record.record(
            np.array([0, 1, 2]),
            np.array([10, 20, 30]),
            np.array([1, 2, 3]),
            np.array([4, 5, 6]),
        )
        assert np.array_equal(record.hit_tri[:3], [10, 8, 30])
        assert record.complete() is False  # ray 3 still unknown


class TestCachePolicy:
    def test_identity_keyed_bvh(self, small_scene, small_bvh, small_workload):
        from repro.bvh import build_bvh

        rays = small_workload.rays
        first = baseline_record(small_bvh, rays, "wavefront")
        rebuilt_bvh = build_bvh(small_scene.mesh, method="sah")
        # Equal content, different identity: must not alias.
        assert baseline_record(rebuilt_bvh, rays, "wavefront") is not first

    def test_lru_eviction_at_capacity(self, small_bvh, small_workload):
        rays = small_workload.rays
        oldest = baseline_record(small_bvh, rays, "scalar", compute=False)
        for i in range(CACHE_CAPACITY):
            sub = rays.subset(np.arange(2 + i))
            baseline_record(small_bvh, sub, "scalar", compute=False)
        assert baseline_cache_info()["entries"] == CACHE_CAPACITY
        # The untouched first record was evicted; a fresh one comes back.
        assert baseline_record(
            small_bvh, rays, "scalar", compute=False
        ) is not oldest

    def test_clear_and_info(self, small_bvh, small_workload):
        baseline_record(small_bvh, small_workload.rays, "wavefront")
        assert baseline_cache_info()["entries"] == 1
        clear_baseline_cache()
        assert baseline_cache_info() == {
            "entries": 0, "capacity": CACHE_CAPACITY, "hits": 0,
        }
