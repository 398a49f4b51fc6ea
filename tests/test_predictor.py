"""Unit tests for RayPredictor and PredictorConfig."""

import pytest

from repro.core import PredictorConfig, RayPredictor


class TestConfig:
    def test_defaults_match_table3(self):
        config = PredictorConfig()
        assert config.num_entries == 1024
        assert config.ways == 4
        assert config.nodes_per_entry == 1
        assert config.hash_function == "grid_spherical"
        assert config.origin_bits == 5
        assert config.direction_bits == 3
        assert config.go_up_level == 3
        assert config.ports == 4
        assert config.lookup_latency == 1
        assert config.repack is True

    def test_hash_bits(self):
        assert PredictorConfig(origin_bits=5).hash_bits == 15
        assert PredictorConfig(origin_bits=3).hash_bits == 9

    def test_with_overrides(self):
        config = PredictorConfig().with_overrides(go_up_level=1, ways=8)
        assert config.go_up_level == 1
        assert config.ways == 8
        assert config.num_entries == 1024  # untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            PredictorConfig().go_up_level = 5

    @pytest.mark.parametrize("field, least", [
        ("ports", 1), ("lookup_latency", 0), ("extra_warps", 0),
    ])
    def test_rejects_timing_values_below_range(self, field, least):
        # Below these the RT unit cannot time a lookup or size its ray
        # buffer.
        with pytest.raises(ValueError, match=f"{field} must be >= {least}"):
            PredictorConfig(**{field: least - 1})
        with pytest.raises(ValueError, match=field):
            PredictorConfig().with_overrides(**{field: least - 8})
        assert getattr(PredictorConfig(**{field: least}), field) == least


class TestPredictor:
    @pytest.fixture()
    def predictor(self, small_bvh):
        return RayPredictor(small_bvh, PredictorConfig(go_up_level=2))

    def test_untrained_predicts_nothing(self, predictor):
        assert predictor.predict(123) is None

    def test_train_then_predict(self, predictor, small_bvh):
        tri = 0
        h = 42
        stored = predictor.train(h, tri)
        assert predictor.predict(h) == [stored]

    def test_trained_node_is_goup_ancestor(self, predictor, small_bvh):
        tri = 5
        leaf = int(small_bvh.leaf_of_triangle()[tri])
        expected = small_bvh.ancestor(leaf, 2)
        assert predictor.trained_node_for(tri) == expected

    def test_goup_zero_stores_leaf(self, small_bvh):
        predictor = RayPredictor(small_bvh, PredictorConfig(go_up_level=0))
        tri = 3
        leaf = int(small_bvh.leaf_of_triangle()[tri])
        assert predictor.trained_node_for(tri) == leaf

    def test_goup_huge_stores_root(self, small_bvh):
        predictor = RayPredictor(small_bvh, PredictorConfig(go_up_level=100))
        assert predictor.trained_node_for(0) == 0

    def test_hash_ray_in_range(self, predictor):
        h = predictor.hash_ray((1.0, 1.0, 1.0), (0.0, 1.0, 0.0))
        assert 0 <= h < (1 << predictor.config.hash_bits)

    def test_hash_batch_matches_scalar(self, predictor, small_workload):
        rays = small_workload.rays
        batch = predictor.hash_batch(rays.origins, rays.directions)
        ray = rays[0]
        assert int(batch[0]) == predictor.hash_ray(ray.origin, ray.direction)

    def test_reset_clears_table(self, predictor):
        predictor.train(7, 0)
        predictor.reset()
        assert predictor.predict(7) is None

    def test_two_point_hasher_selected(self, small_bvh):
        predictor = RayPredictor(
            small_bvh, PredictorConfig(hash_function="two_point")
        )
        assert type(predictor.hasher).__name__ == "TwoPointHash"
