"""Unit tests for BVH refitting and inter-frame predictor persistence."""

import numpy as np
import pytest

from repro import reference as scalar_reference
from repro.bvh import build_bvh, jitter_mesh, refit_bvh, validate_bvh
from repro.core import PredictorConfig, RayPredictor
from repro.gpu import GPUConfig, simulate_workload
from repro.gpu.simulator import make_predictors
from repro.trace import occlusion_any_hit, trace_occlusion_batch

PC = PredictorConfig(origin_bits=3, direction_bits=2, go_up_level=2)


class TestRefit:
    def test_refit_valid_and_topology_preserved(self, small_bvh):
        moved = jitter_mesh(small_bvh.mesh, magnitude=0.05, seed=1)
        refitted = refit_bvh(small_bvh, moved)
        validate_bvh(refitted)
        assert np.array_equal(refitted.left, small_bvh.left)
        assert np.array_equal(refitted.parent, small_bvh.parent)
        assert np.array_equal(refitted.first_tri, small_bvh.first_tri)

    def test_refit_identity_mesh_keeps_bounds(self, small_bvh):
        refitted = refit_bvh(small_bvh, small_bvh.mesh)
        assert np.allclose(refitted.lo, small_bvh.lo)
        assert np.allclose(refitted.hi, small_bvh.hi)

    def test_refit_traversal_correct_on_moved_mesh(self, small_bvh, small_workload):
        moved = jitter_mesh(small_bvh.mesh, magnitude=0.1, seed=2)
        refitted = refit_bvh(small_bvh, moved)
        rebuilt = build_bvh(moved, method="median")
        rays = [small_workload.rays[i] for i in range(0, len(small_workload), 17)]
        for ray in rays:
            assert occlusion_any_hit(refitted, ray) == occlusion_any_hit(rebuilt, ray)

    def test_refit_count_mismatch_raises(self, small_bvh, tiny_mesh):
        with pytest.raises(ValueError):
            refit_bvh(small_bvh, tiny_mesh)

    def test_jitter_preserves_shape(self, tiny_mesh):
        moved = jitter_mesh(tiny_mesh, magnitude=0.5, seed=3)
        # Rigid per-triangle translation: edge vectors unchanged.
        assert np.allclose(moved.v1 - moved.v0, tiny_mesh.v1 - tiny_mesh.v0)

    def test_jitter_deterministic(self, tiny_mesh):
        a = jitter_mesh(tiny_mesh, 0.2, seed=9)
        b = jitter_mesh(tiny_mesh, 0.2, seed=9)
        assert np.allclose(a.v0, b.v0)


class TestRefitEngines:
    """The level-synchronous refit is a drop-in for the scalar oracle."""

    @pytest.mark.parametrize("method", ["sah", "median", "lbvh"])
    def test_vector_refit_bit_identical_to_scalar(self, small_scene, method):
        bvh = build_bvh(small_scene.mesh, method=method)
        moved = jitter_mesh(bvh.mesh, magnitude=0.07, seed=5)
        vec = refit_bvh(bvh, moved)
        sca = scalar_reference.refit_bvh(bvh, moved)
        # Min/max folds are exactly associative, so the two schedules
        # must agree to the bit, not within a tolerance.
        assert np.array_equal(vec.lo, sca.lo)
        assert np.array_equal(vec.hi, sca.hi)

    def test_deformed_mesh_keeps_indices_stable(self, small_bvh):
        # The inter-frame contract: predictor tables store node indices,
        # so a refit over a deformed mesh must leave every index-valued
        # array untouched - only bounds may move.
        moved = jitter_mesh(small_bvh.mesh, magnitude=0.2, seed=11)
        refitted = refit_bvh(small_bvh, moved)
        for attr in ("left", "right", "first_tri", "tri_count",
                     "parent", "tri_indices"):
            assert np.array_equal(
                getattr(refitted, attr), getattr(small_bvh, attr)
            ), attr
        assert refitted.mesh is moved
        assert not np.array_equal(refitted.lo, small_bvh.lo)


class TestRebind:
    def test_rebind_keeps_table(self, small_bvh):
        predictor = RayPredictor(small_bvh, PC)
        stored = predictor.train(123, 0)
        moved = jitter_mesh(small_bvh.mesh, 0.02, seed=4)
        predictor.rebind(refit_bvh(small_bvh, moved))
        assert predictor.predict(123) == [stored]

    def test_rebind_topology_mismatch_raises(self, small_bvh, tiny_mesh):
        predictor = RayPredictor(small_bvh, PC)
        other = build_bvh(tiny_mesh)
        with pytest.raises(ValueError):
            predictor.rebind(other)


class TestInterFramePersistence:
    def test_make_predictors_count(self, small_bvh):
        config = GPUConfig(num_sms=3, predictor=PC)
        assert len(make_predictors(small_bvh, config)) == 3
        assert make_predictors(small_bvh, GPUConfig(num_sms=3)) == []

    def test_predictor_count_mismatch_raises(self, small_bvh, small_workload):
        config = GPUConfig(num_sms=2, predictor=PC)
        pool = make_predictors(small_bvh, GPUConfig(num_sms=1, predictor=PC))
        with pytest.raises(ValueError):
            simulate_workload(small_bvh, small_workload.rays, config, predictors=pool)

    def test_warm_table_predicts_more_on_second_frame(self, small_bvh, small_workload):
        config = GPUConfig(num_sms=1, predictor=PC)
        pool = make_predictors(small_bvh, config)
        frame1 = simulate_workload(small_bvh, small_workload.rays, config, predictors=pool)
        frame2 = simulate_workload(small_bvh, small_workload.rays, config, predictors=pool)
        # The second frame starts with a trained table.
        assert frame2.predicted_rate >= frame1.predicted_rate

    def test_warm_results_still_correct(self, small_bvh, small_workload):
        reference = trace_occlusion_batch(small_bvh, small_workload.rays)
        config = GPUConfig(num_sms=1, predictor=PC)
        pool = make_predictors(small_bvh, config)
        simulate_workload(small_bvh, small_workload.rays, config, predictors=pool)
        frame2 = simulate_workload(small_bvh, small_workload.rays, config, predictors=pool)
        assert sum(r.hits for r in frame2.per_sm) == int(reference.sum())
