"""Unit tests for the RT-unit timing model and top-level simulator."""

import pytest

from repro import reference as scalar_reference
from repro.core import PredictorConfig
from repro.gpu import GPUConfig, MemoryHierarchy, VectorRTUnit, simulate_workload
from repro.gpu.config import CacheConfig, MemoryConfig, RTUnitConfig
from repro.gpu.simulator import split_rays_across_sms
from repro.trace import TraversalStats, trace_occlusion_batch

PC = PredictorConfig(origin_bits=3, direction_bits=2, go_up_level=2)


def run_unit(bvh, rays, predictor_config=None, **gpu_overrides):
    config = GPUConfig(num_sms=1, predictor=predictor_config, **gpu_overrides)
    memory = MemoryHierarchy(config.memory)
    unit = VectorRTUnit(bvh, config, memory)
    return unit.run(rays)


class TestFunctionalEquivalence:
    """The timing model must compute the same hits as the reference."""

    def test_baseline_hits_match_reference(self, small_bvh, small_workload):
        reference = trace_occlusion_batch(small_bvh, small_workload.rays)
        result = run_unit(small_bvh, small_workload.rays)
        assert result.hits == int(reference.sum())

    def test_predictor_hits_match_reference(self, small_bvh, small_workload):
        """Prediction is speculation: results must be identical."""
        reference = trace_occlusion_batch(small_bvh, small_workload.rays)
        result = run_unit(small_bvh, small_workload.rays, PC)
        assert result.hits == int(reference.sum())

    def test_repack_does_not_change_results(self, small_bvh, small_workload):
        with_repack = run_unit(small_bvh, small_workload.rays, PC)
        without = run_unit(
            small_bvh, small_workload.rays, PC.with_overrides(repack=False)
        )
        assert with_repack.hits == without.hits
        assert with_repack.rays == without.rays

    def test_baseline_node_fetches_match_reference(self, small_bvh, small_workload):
        # The RT unit pops per-ray stacks in scalar order, so its traffic
        # matches the scalar reference loop exactly; the wavefront engine
        # visits nodes in a different order and retires any-hit rays at
        # different points, so only hit *results* (not fetch counts) are
        # comparable against it.
        stats = TraversalStats()
        scalar_reference.trace_occlusion_batch(
            small_bvh, small_workload.rays, stats=stats
        )
        result = run_unit(small_bvh, small_workload.rays)
        assert result.node_fetches == stats.node_fetches
        assert result.tri_fetches == stats.tri_fetches


class TestCounters:
    def test_ray_accounting(self, small_bvh, small_workload):
        result = run_unit(small_bvh, small_workload.rays, PC)
        assert result.rays == len(small_workload)
        assert 0 <= result.verified <= result.predicted <= result.rays
        assert result.predictor_lookups == result.rays
        assert result.predictor_updates == result.hits

    def test_cycles_positive_and_bounded(self, small_bvh, small_workload):
        result = run_unit(small_bvh, small_workload.rays)
        assert result.cycles > 0
        # Sanity bound: cannot be faster than one warp-step per cycle.
        assert result.cycles >= result.warp_steps / 4

    def test_simt_efficiency_range(self, small_bvh, small_workload):
        result = run_unit(small_bvh, small_workload.rays)
        assert 0.0 < result.simt_efficiency <= 1.0

    def test_l1_stats(self, small_bvh, small_workload):
        result = run_unit(small_bvh, small_workload.rays)
        assert result.l1_accesses > 0
        assert 0.0 <= result.l1_hit_rate <= 1.0

    def test_misprediction_accounting(self, small_bvh, small_workload):
        result = run_unit(small_bvh, small_workload.rays, PC)
        mispredicted = result.predicted - result.verified
        if mispredicted:
            assert (
                result.misprediction_node_fetches
                + result.misprediction_tri_fetches
                > 0
            )

    def test_baseline_has_no_predictor_traffic(self, small_bvh, small_workload):
        result = run_unit(small_bvh, small_workload.rays)
        assert result.predicted == 0
        assert result.predictor_lookups == 0
        assert result.collector_warps == 0

    def test_collector_used_with_repack(self, small_bvh, small_workload):
        result = run_unit(small_bvh, small_workload.rays, PC)
        if result.predicted > 32:
            assert result.collector_warps > 0

    def test_no_collector_without_repack(self, small_bvh, small_workload):
        result = run_unit(
            small_bvh, small_workload.rays, PC.with_overrides(repack=False)
        )
        assert result.collector_warps == 0


class TestDeterminism:
    def test_repeat_runs_identical(self, small_bvh, small_workload):
        a = run_unit(small_bvh, small_workload.rays, PC)
        b = run_unit(small_bvh, small_workload.rays, PC)
        assert a.cycles == b.cycles
        assert a.node_fetches == b.node_fetches
        assert a.verified == b.verified


class TestConfigSensitivity:
    def test_bigger_l1_not_slower(self, small_bvh, small_workload):
        small = run_unit(
            small_bvh, small_workload.rays,
            memory=MemoryConfig(l1=CacheConfig(size_bytes=1024, ways=8)),
        )
        large = run_unit(
            small_bvh, small_workload.rays,
            memory=MemoryConfig(l1=CacheConfig(size_bytes=64 * 1024)),
        )
        assert large.cycles <= small.cycles
        assert large.l1_hit_rate >= small.l1_hit_rate

    def test_higher_intersection_latency_slower(self, small_bvh, small_workload):
        fast = run_unit(
            small_bvh, small_workload.rays,
            rt_unit=RTUnitConfig(box_test_latency=1, tri_test_latency=1),
        )
        slow = run_unit(
            small_bvh, small_workload.rays,
            rt_unit=RTUnitConfig(box_test_latency=16, tri_test_latency=16),
        )
        assert slow.cycles > fast.cycles

    def test_warp_barrier_slower(self, small_bvh, small_workload):
        free = run_unit(small_bvh, small_workload.rays)
        barrier = run_unit(
            small_bvh, small_workload.rays, rt_unit=RTUnitConfig(warp_barrier=True)
        )
        assert barrier.cycles >= free.cycles
        assert barrier.hits == free.hits


class TestSimulator:
    def test_split_round_robin(self, small_workload):
        parts = split_rays_across_sms(small_workload.rays, 2, warp_size=32)
        assert sum(len(p) for p in parts) == len(small_workload)
        # First warp goes to SM 0, second to SM 1.
        assert parts[0][0] == 0
        if len(small_workload) > 32:
            assert parts[1][0] == 32

    def test_split_validation(self, small_workload):
        with pytest.raises(ValueError):
            split_rays_across_sms(small_workload.rays, 0)

    def test_simulate_workload_aggregates(self, small_bvh, small_workload):
        out = simulate_workload(small_bvh, small_workload.rays, GPUConfig(num_sms=2))
        assert len(out.per_sm) == 2
        assert out.rays == len(small_workload)
        assert out.cycles == max(r.cycles for r in out.per_sm)

    def test_hits_invariant_across_sm_counts(self, small_bvh, small_workload):
        reference = trace_occlusion_batch(small_bvh, small_workload.rays)
        for sms in (1, 2, 4):
            out = simulate_workload(
                small_bvh, small_workload.rays, GPUConfig(num_sms=sms)
            )
            total_hits = sum(r.hits for r in out.per_sm)
            assert total_hits == int(reference.sum())

    def test_predictor_enabled_by_config(self, small_bvh, small_workload):
        out = simulate_workload(
            small_bvh, small_workload.rays, GPUConfig(num_sms=1, predictor=PC)
        )
        assert out.predictor_lookups == len(small_workload)

    def test_gpu_config_helpers(self):
        config = GPUConfig(predictor=PC)
        assert config.baseline().predictor is None
        assert config.with_overrides(num_sms=4).num_sms == 4
