"""Unit tests for the tournament (multi-hash) predictor extension."""

import pytest

from repro.core import PredictorConfig
from repro.core.adaptive import TournamentPredictor
from repro.core.simulate import simulate_predictor
from repro.gpu import GPUConfig, VectorRTUnit
from repro.gpu.memory import MemoryHierarchy
from repro.trace import trace_occlusion_batch

PC = PredictorConfig(origin_bits=3, direction_bits=2, go_up_level=2)


@pytest.fixture()
def predictor(small_bvh):
    return TournamentPredictor(small_bvh, PC)


class TestInterface:
    def test_hash_packs_both_components(self, predictor):
        origin, direction = (1.0, 1.0, 1.0), (0.0, 1.0, 0.0)
        packed = predictor.hash_ray(origin, direction)
        a, b = TournamentPredictor._unpack(packed)
        assert a == predictor.hasher_a.hash_ray(origin, direction)
        assert b == predictor.hasher_b.hash_ray(origin, direction)

    def test_hash_batch_matches_scalar(self, predictor, small_workload):
        rays = small_workload.rays
        batch = predictor.hash_batch(rays.origins, rays.directions)
        ray = rays[3]
        assert int(batch[3]) == predictor.hash_ray(ray.origin, ray.direction)

    def test_untrained_predicts_nothing(self, predictor):
        assert predictor.predict(predictor.hash_ray((1, 1, 1), (0, 1, 0))) is None

    def test_train_then_predict(self, predictor):
        h = predictor.hash_ray((2.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        stored = predictor.train(h, 0)
        assert predictor.predict(h) == [stored]

    def test_train_populates_both_tables(self, predictor):
        h = predictor.hash_ray((2.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        node = predictor.train(h, 0)
        a, b = TournamentPredictor._unpack(h)
        assert node in (predictor.table_a.peek(a) or [])
        assert node in (predictor.table_b.peek(b) or [])

    @pytest.mark.parametrize("which", ["negative", "past-end"])
    def test_out_of_range_triangle_is_dropped(self, predictor, small_bvh, which):
        # Same guard as RayPredictor.train: -1 must not wrap to the last
        # triangle, and one past the end must not raise.
        hit_tri = -1 if which == "negative" else small_bvh.num_triangles
        h = predictor.hash_ray((2.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        assert predictor.trained_node_for(hit_tri) == -1
        assert predictor.train(h, hit_tri) == -1
        for table in (predictor.table_a, predictor.table_b):
            assert table.stats.updates == 0
            assert table.occupied_slots() == []
        assert predictor.predict(h) is None

    def test_out_of_range_prediction_is_dropped(self, predictor, small_bvh):
        # Same guard as RayPredictor.predict: a corrupted node in the chosen
        # table never reaches the caller, and the drop is counted.
        h = predictor.hash_ray((2.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        node = predictor.train(h, 5)
        bad = small_bvh.num_nodes + 3
        for table in (predictor.table_a, predictor.table_b):
            [(set_index, way)] = table.occupied_slots()
            assert table.corrupt_node(set_index, way, 0, bad) == node
        assert predictor.predict(h) is None
        assert predictor.guards.invalid_nodes_dropped == 1
        assert predictor.guards.predictions_rejected == 1
        assert predictor.guards.invalid_training_dropped == 0
        predictor.train(h, -1)
        assert predictor.guards.invalid_training_dropped == 1

    def test_reset(self, predictor):
        h = predictor.hash_ray((2.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        predictor.train(h, 0)
        predictor.reset()
        assert predictor.predict(h) is None

    def test_storage_comparable_to_single_table(self, small_bvh):
        from repro.core.table import PredictorTable

        tournament = TournamentPredictor(small_bvh, PC)
        single = PredictorTable(
            num_entries=PC.num_entries, ways=PC.ways, hash_bits=PC.hash_bits
        )
        # Two half-size tables + chooser stay within ~20 % of one table.
        assert tournament.size_kib() < 1.2 * single.size_kib()


class TestChooser:
    def test_confirm_moves_chooser_toward_a(self, predictor, small_bvh):
        h = predictor.hash_ray((2.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        a, b = TournamentPredictor._unpack(h)
        node = predictor.trained_node_for(0)
        predictor.table_a.update(a, node)  # only A knows the answer
        index = predictor._chooser_index(a)
        before = int(predictor._chooser[index])
        predictor.confirm(h, node)
        assert predictor._chooser[index] >= before

    def test_confirm_moves_chooser_toward_b(self, predictor):
        h = predictor.hash_ray((2.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        a, b = TournamentPredictor._unpack(h)
        node = predictor.trained_node_for(0)
        predictor.table_b.update(b, node)
        index = predictor._chooser_index(a)
        before = int(predictor._chooser[index])
        predictor.confirm(h, node)
        assert predictor._chooser[index] <= before

    def test_prediction_prefers_trusted_component(self, predictor):
        h = predictor.hash_ray((2.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        a, b = TournamentPredictor._unpack(h)
        predictor.table_a.update(a, 1)
        predictor.table_b.update(b, 2)
        node_a = predictor.trained_node_for(0)
        # Drive the chooser toward B.
        predictor.table_b.update(b, node_a)
        for _ in range(4):
            predictor.confirm(h, node_a)
        # B's counter direction means B's nodes come back.
        prediction = predictor.predict(h)
        assert prediction is not None


class TestSimulatorsAcceptIt:
    def test_functional_simulation(self, small_bvh, small_workload):
        predictor = TournamentPredictor(small_bvh, PC)
        result = simulate_predictor(
            small_bvh, small_workload.rays, predictor=predictor
        )
        assert result.num_rays == len(small_workload)
        assert result.predicted > 0

    def test_timing_simulation_results_correct(self, small_bvh, small_workload):
        reference = trace_occlusion_batch(small_bvh, small_workload.rays)
        config = GPUConfig(num_sms=1, predictor=PC)
        unit = VectorRTUnit(
            small_bvh, config, MemoryHierarchy(config.memory),
            predictor=TournamentPredictor(small_bvh, PC),
        )
        result = unit.run(small_workload.rays)
        assert result.hits == int(reference.sum())
        assert result.predicted > 0
